(* verify: the translation validator and the static analysis over the
   EH and AOT code caches of a fixed subset of the selected benchmarks.
   Setup builds the caches and decodes their guest blocks; a timed item
   re-checks one cache block by block — for AOT after re-running the
   analysis and the whole-image translation. The output check executes
   each fresh AOT cache against the interpreter reference. A block whose check ends in a budget bail-out is a failed
   operation: residue case-splitting forks eight ways per unknown
   address root against a budget of 1,024 cases, so a block with four
   or more roots is never decided. *)

open Common
module W = Mda_workloads
module A = Mda_analysis

let scale = 0.05

let benches =
  [ "164.gzip"; "179.art"; "188.ammp"; "410.bwaves"; "450.soplex"; "464.h264ref" ]

(* An EH cache is built once in setup and only re-checked; an AOT cache
   is rebuilt by every item, which compares its statistics with setup's
   translation. *)
type kind = Eh of Bt.Code_cache.t | Aot of Bt.Aot.stats

type cache_item = {
  name : string;
  kind : kind;
  w : W.Workload.t;
  blocks : (int, Bt.Block.t) Hashtbl.t;
      (** the cache's guest blocks by start address, decoded in setup *)
  ref_ : reference;
}

type prep = { caches : cache_item array; order : int array }

let block_of mem start =
  match Bt.Block.discover mem ~pc:start with Ok b -> Some b | Error _ -> None

(* Run an AOT cache to Halt on a fresh image. *)
let aot_run (w : W.Workload.t) ~summary cache =
  let mem = W.Workload.fresh_memory w in
  let mechanism = Bt.Mechanism.Aot { summary; unknown = Bt.Mechanism.Sa_seq } in
  let rt = Bt.Runtime.create ~config:(Bt.Runtime.default_config mechanism) ~cache ~mem () in
  let st = Bt.Runtime.run rt ~entry:(W.Workload.entry w) in
  (st, rt)

let aot_problems ref_ ((st : Bt.Run_stats.t), (rt : Bt.Runtime.t)) =
  let final = snapshot rt.Bt.Runtime.cpu in
  List.concat
    [ (if st.Bt.Run_stats.stop <> Bt.Run_stats.Halted then
         check_fail "AOT run stopped: %s" (Bt.Run_stats.stop_reason_to_string st.stop)
       else []);
      (if not (state_eq final ref_.final) then
         check_fail "AOT final state %s differs from the interpreter's %s" (pp_state final)
           (pp_state ref_.final)
       else []) ]

let aot_translate mem ~entry =
  let summary = A.Dataflow.summary (A.Dataflow.analyze mem ~entry) in
  match Bt.Aot.translate_image ~summary ~unknown:Bt.Mechanism.Sa_seq mem ~entry with
  | Ok r -> r
  | Error e -> failwith ("AOT translation failed: " ^ e)

(* Decode the guest block at every start address of [caches] from [mem]. *)
let decode mem caches =
  let blocks = Hashtbl.create 64 in
  List.iter
    (fun cache ->
      List.iter
        (fun (br : Bt.Code_cache.block_rec) ->
          Option.iter (Hashtbl.replace blocks br.Bt.Code_cache.start) (block_of mem br.start))
        (Bt.Code_cache.blocks_sorted cache))
    caches;
  blocks

let setup ~seed =
  let caches =
    List.concat_map
      (fun name ->
        let w = W.Workload.instantiate ~scale name in
        let entry = W.Workload.entry w in
        let ref_ = reference (fun () -> W.Workload.fresh_memory w) ~entry in
        let rt =
          Bt.Runtime.create ~config:(Bt.Runtime.default_config Mda_harness.Experiment.best_eh)
            ~mem:(W.Workload.fresh_memory w) ()
        in
        let st = Bt.Runtime.run rt ~entry in
        if st.Bt.Run_stats.stop <> Bt.Run_stats.Halted then failwith (name ^ ": EH run did not halt");
        let eh = rt.Bt.Runtime.cache in
        let img = W.Workload.fresh_memory w in
        let aot, ast = aot_translate img ~entry in
        let blocks = decode img [ eh; aot ] in
        [ { name; kind = Eh eh; w; blocks; ref_ }; { name; kind = Aot ast; w; blocks; ref_ } ])
      benches
  in
  let caches = Array.of_list caches in
  { caches; order = shuffle ~seed (Array.init (Array.length caches) Fun.id) }

(* The validator's verdict on one cache: proven violations are output
   failures; budget bail-outs are failed operations, counted apart. *)
let report_problems (r : A.Validator.report) =
  List.map
    (fun v -> Format.asprintf "validator violation: %a" A.Validator.pp_violation v)
    (A.Validator.hard_violations r)

(* Check every live block of [cache] one by one. *)
let check_blocks ~traced cache blocks =
  let problems = ref [] and bailouts = ref 0 and decided = ref 0 and guest = ref 0 in
  let paths = ref 0 and envs = ref 0 in
  List.iter
    (fun (br : Bt.Code_cache.block_rec) ->
      match Hashtbl.find_opt blocks br.Bt.Code_cache.start with
      | None -> problems := Printf.sprintf "block %#x was not decoded in setup" br.start :: !problems
      | Some block ->
        if traced then enter (layer "validator");
        let r = A.Validator.check_block ~cache ~block in
        let bailed = A.Validator.budget_bailouts r > 0 in
        if traced then begin
          let _, self, w = leave_raw () in
          credit "validator" ~n:1. ~ns:self ~words:w;
          if bailed then credit "validator.bailout" ~n:1. ~ns:self ~words:w
        end;
        if bailed then incr bailouts else if r.A.Validator.blocks_checked = 1 then incr decided;
        guest := !guest + Bt.Block.length block;
        paths := !paths + r.A.Validator.paths_checked;
        envs := !envs + r.A.Validator.envs_checked;
        problems := List.rev_append (report_problems r) !problems)
    (Bt.Code_cache.blocks_sorted cache);
  (!decided, !bailouts, !guest, !paths, !envs, List.rev !problems)

let run ~traced p i =
  let c = p.caches.(i) in
  let cache, kind_name, extra, sessions, digest_extra =
    match c.kind with
    | Eh cache -> (cache, "eh", (fun () -> []), 0, "")
    | Aot setup_st ->
      let entry = W.Workload.entry c.w in
      let mem = span ~traced "image" ~n:(fun _ -> 1.) ~sample:true (fun () -> W.Workload.fresh_memory c.w) in
      let a =
        span ~traced "analysis" ~n:(fun (a : A.Dataflow.t) -> float_of_int a.A.Dataflow.blocks)
          (fun () -> A.Dataflow.analyze mem ~entry)
      in
      let summary = A.Dataflow.summary a in
      let cache, st =
        span ~traced "aot" ~n:(fun (_, (st : Bt.Aot.stats)) -> float_of_int st.Bt.Aot.blocks)
          (fun () ->
            match Bt.Aot.translate_image ~summary ~unknown:Bt.Mechanism.Sa_seq mem ~entry with
            | Ok r -> r
            | Error e -> failwith ("AOT translation failed: " ^ e))
      in
      if traced then bump "analysis.iterations" (float_of_int a.A.Dataflow.iterations);
      (* executing the cache is part of the check, not of the timed work *)
      let problems () =
        (if st = setup_st then [] else check_fail "AOT translation differs from setup's")
        @ aot_problems c.ref_ (aot_run c.w ~summary cache)
      in
      (cache, "aot", problems, 1, Printf.sprintf "aot=%d/%d/%d" st.blocks st.host_insns st.chains)
  in
  let decided, bailouts, guest, paths, envs, problems = check_blocks ~traced cache c.blocks in
  let blocks = List.length (Bt.Code_cache.blocks_sorted cache) in
  if traced then begin
    bump "validator.blocks" (float_of_int blocks);
    bump "validator.decided" (float_of_int decided);
    bump "validator.bailouts" (float_of_int bailouts);
    bump "validator.paths" (float_of_int paths);
    bump "validator.residue_cases" (float_of_int envs)
  end;
  let problems =
    if decided + bailouts <> blocks then
      "decided plus bail-outs differ from the blocks checked" :: problems
    else problems
  in
  { ops = blocks;
    failed = bailouts;
    check = (fun () -> List.map (Printf.sprintf "%s/%s: %s" c.name kind_name) (extra () @ problems));
    guest_insns = float_of_int guest;
    sessions;
    blocks;
    digest = Printf.sprintf "blocks=%d;bailouts=%d;paths=%d;envs=%d;%s" blocks bailouts paths envs digest_extra }

let workload =
  { fault =
      "validator budget bail-outs: residue case-splitting forks 8 ways per unknown address \
       root against Validator.max_envs = 1024 cases";
    setup;
    items = (fun p -> p.order); run }
