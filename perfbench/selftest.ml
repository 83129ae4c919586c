(* Self-tests of the benchmark's output checks: each check must accept a
   real outcome and reject the same outcome deliberately corrupted. *)

open Common
module W = Mda_workloads
module A = Mda_analysis
module Srv = Mda_server

let failures = ref 0

let expect_clean what problems =
  match problems with
  | [] -> Printf.printf "ok   %s: accepted\n" what
  | p :: _ ->
    incr failures;
    Printf.printf "FAIL %s: a correct outcome was rejected: %s\n" what p

let expect_rejected what problems =
  match problems with
  | [] ->
    incr failures;
    Printf.printf "FAIL %s: the corrupted outcome was accepted\n" what
  | p :: _ -> Printf.printf "ok   %s: rejected (%s)\n" what p

(* Flip one bit of guest register [r], run [check], flip it back. *)
let with_flipped_reg (cpu : Machine.Cpu.t) r check =
  let v = Machine.Cpu.get cpu r in
  Machine.Cpu.set cpu r (Int64.logxor v 1L);
  let p = check () in
  Machine.Cpu.set cpu r v;
  p

(* Flip one bit of the guest memory byte at [addr], run [check], flip it back. *)
let with_flipped_byte (mem : Machine.Memory.t) addr check =
  let v = Machine.Memory.read_u8 mem addr in
  Machine.Memory.write_u8 mem addr (v lxor 1);
  let p = check () in
  Machine.Memory.write_u8 mem addr v;
  p

let paper_cells ~seed =
  let b = Cells.prepare_bench "410.bwaves" in
  let mech = Cells.mechanism_names.(3) in
  let mem = W.Workload.fresh_memory b.Cells.w in
  let rt = Bt.Runtime.create ~config:(Bt.Runtime.default_config b.Cells.mechs.(3)) ~mem () in
  let st = Bt.Runtime.run rt ~entry:(W.Workload.entry b.Cells.w) in
  let cpu = rt.Bt.Runtime.cpu in
  let check () = Cells.check b ~mech st (snapshot cpu) in
  expect_clean "paper-cells eh cell" (check ());
  let rng = Mda_util.Rng.create (Int64.of_int seed) in
  let r = Mda_util.Rng.int rng 8 in
  expect_rejected (Printf.sprintf "paper-cells cell with R%d flipped" r) (with_flipped_reg cpu r check);
  let addr = Bt.Layout.data_base + Mda_util.Rng.int rng 4096 in
  expect_rejected
    (Printf.sprintf "paper-cells cell with memory byte %#x flipped" addr)
    (with_flipped_byte mem addr check);
  expect_rejected "paper-cells cell with a patch count above the MDA sites"
    (Cells.check b ~mech { st with Bt.Run_stats.patches = b.Cells.mda_sites + 1 } (snapshot cpu))

let oracle () =
  let w = W.Workload.instantiate ~scale:Oracle.scale "164.gzip" in
  let st, _ =
    Bt.Runtime.interpret_program ~mem:(W.Workload.fresh_memory w) ~entry:(W.Workload.entry w) ()
  in
  expect_clean "oracle 164.gzip" (Oracle.check w st);
  expect_rejected "oracle with one memory reference too many"
    (Oracle.check w { st with Bt.Run_stats.memrefs = Int64.succ st.Bt.Run_stats.memrefs });
  expect_rejected "oracle with one MDA too few"
    (Oracle.check w { st with Bt.Run_stats.mdas = Int64.pred st.Bt.Run_stats.mdas })

let serve ~seed =
  let pop = Serve.population ~seed 0 in
  let o = Srv.Scheduler.run ~tenants:Serve.tenants Serve.config pop.Serve.specs in
  expect_clean "serve population" (Serve.check pop o);
  let sessions = List.filter_map Fun.id o.Srv.Scheduler.finals in
  let rng = Mda_util.Rng.create (Int64.of_int seed) in
  let s = List.nth sessions (Mda_util.Rng.int rng (List.length sessions)) in
  let cpu = s.Srv.Session.rt.Bt.Runtime.cpu in
  let r = Mda_util.Rng.int rng 8 in
  expect_rejected
    (Printf.sprintf "serve session %d with R%d flipped" s.Srv.Session.sid r)
    (with_flipped_reg cpu r (fun () -> Serve.check pop o));
  let addr = Bt.Layout.data_base + Mda_util.Rng.int rng 4096 in
  expect_rejected
    (Printf.sprintf "serve session %d with memory byte %#x flipped" s.Srv.Session.sid addr)
    (with_flipped_byte cpu.Machine.Cpu.mem addr (fun () -> Serve.check pop o))

(* Patch seeded mutants of one host instruction into a decided block of
   an EH cache; the validator must report a violation. Mutants that
   leave the block's meaning unchanged cannot be rejected by any sound
   checker; they are skipped and counted. *)
let verify ~seed =
  let w = W.Workload.instantiate ~scale:Verify.scale "410.bwaves" in
  let mem = W.Workload.fresh_memory w in
  let rt =
    Bt.Runtime.create ~config:(Bt.Runtime.default_config Mda_harness.Experiment.best_eh) ~mem ()
  in
  ignore (Bt.Runtime.run rt ~entry:(W.Workload.entry w));
  let cache = rt.Bt.Runtime.cache in
  let decided =
    List.filter_map
      (fun (br : Bt.Code_cache.block_rec) ->
        match (Verify.block_of mem br.Bt.Code_cache.start, br.host_range) with
        | Some block, Some range ->
          let r = A.Validator.check_block ~cache ~block in
          if A.Validator.budget_bailouts r = 0 then Some (block, range, r) else None
        | _ -> None)
      (Bt.Code_cache.blocks_sorted cache)
  in
  List.iter (fun (_, _, r) -> expect_clean "verify decided block" (Verify.report_problems r))
    (match decided with d :: _ -> [ d ] | [] -> []);
  let candidates =
    List.concat_map
      (fun (block, (lo, hi), _) ->
        List.concat_map
          (fun pc ->
            match Bt.Code_cache.insn_at cache pc with
            | Some insn -> List.map (fun m -> (block, pc, insn, m)) (A.Mutate.mutants_of insn)
            | None -> [])
          (List.init (hi - lo) (fun k -> lo + k)))
      decided
  in
  let candidates = shuffle ~seed (Array.of_list candidates) in
  let survivors = ref 0 and found = ref None in
  Array.iter
    (fun (block, pc, insn, m) ->
      if !found = None then begin
        let patches = cache.Bt.Code_cache.patches in
        Bt.Code_cache.patch cache pc m;
        let problems = Verify.report_problems (A.Validator.check_block ~cache ~block) in
        Bt.Code_cache.patch cache pc insn;
        cache.Bt.Code_cache.patches <- patches;
        if problems = [] then incr survivors
        else found := Some (Format.asprintf "%a at host pc %d" Mda_host.Pretty.pp_insn m pc, problems)
      end)
    candidates;
  match !found with
  | Some (what, problems) ->
    expect_rejected
      (Printf.sprintf "verify cache with mutant %s (%d neutral mutants skipped)" what !survivors)
      problems
  | None ->
    incr failures;
    Printf.printf "FAIL verify: none of %d mutants was rejected\n" (Array.length candidates)

let run ~seed =
  paper_cells ~seed;
  oracle ();
  serve ~seed;
  verify ~seed;
  if !failures = 0 then begin
    print_endline "selftest OK";
    0
  end
  else begin
    Printf.printf "selftest FAILED: %d\n" !failures;
    1
  end
