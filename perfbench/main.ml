(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe selftest [--seed N]

   Sets the workload up (several times; the median is setup_s), then
   runs whole rounds of its items until S seconds have passed, checks
   every item's output, and prints the metrics. The last line of
   standard output is one JSON object. With --trace 1 untraced and
   traced rounds alternate: the traced rounds give the per-layer
   metrics, the untraced ones the tracing overhead, and every item's
   simulated statistics must agree between the two. *)

open Common

(* Setup runs at least [min_setups] times and until [setup_budget_s]
   seconds have gone into it, so a setup of a few ms is still measured
   over many repetitions. *)
let min_setups = 3
let max_setups = 200
let setup_budget_s = 1.0

type totals = {
  mutable items : int;
  mutable ops : int;
  mutable failed : int;
  mutable problems : string list;
  mutable guest_insns : float;
  mutable sessions : int;
  mutable blocks : int;
  mutable busy_s : float;
  lat_ms : float list array;  (** by position in the round, one per round *)
}

let fresh_totals n =
  { items = 0; ops = 0; failed = 0; problems = []; guest_insns = 0.; sessions = 0; blocks = 0;
    busy_s = 0.; lat_ms = Array.make n [] }

let add tot (o : outcome) =
  tot.items <- tot.items + 1;
  tot.ops <- tot.ops + o.ops;
  tot.failed <- tot.failed + o.failed;
  tot.guest_insns <- tot.guest_insns +. o.guest_insns;
  tot.sessions <- tot.sessions + o.sessions;
  tot.blocks <- tot.blocks + o.blocks

let add_time tot k dt =
  tot.busy_s <- tot.busy_s +. dt;
  tot.lat_ms.(k) <- (dt *. 1e3) :: tot.lat_ms.(k)

(* One round: every item once, in the seed's order. The first untraced
   and the first traced round run each item's full output check;
   [digests] holds the first round's per-item simulated statistics,
   which every later round — traced or not — must reproduce exactly.
   An item's time ends with a full collection, so it pays its own
   major-GC debt, including freeing the outcome it returned unless that
   is to be checked, and the next item starts from a collected heap;
   what the untimed work between items leaves is collected untimed. *)
let round (wl : _ workload) p tot ~traced ~digests =
  let first = digests.(0) = "" in
  let check = first || (traced && tot.items = 0) in
  Gc.full_major ();
  Array.iteri
    (fun k i ->
      let t0 = item_clock () in
      let checker, digest =
        let o = wl.run ~traced p i in
        add tot o;
        ((if check then Some o.check else None), o.digest)
      in
      (* the outcome is dead here unless it is to be checked *)
      Gc.full_major ();
      add_time tot k (item_clock () -. t0);
      Option.iter
        (fun c ->
          tot.problems <- List.rev_append (c ()) tot.problems;
          Gc.full_major ())
        checker;
      if first then digests.(k) <- digest
      else if not (String.equal digests.(k) digest) then
        tot.problems <-
          Printf.sprintf "item %d: %s statistics differ from the first round's" i
            (if traced then "traced" else "untraced")
          :: tot.problems)
    (wl.items p)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let per_layer ~rounds ~overhead ~minor_words ~majors =
  let r = float_of_int (max 1 rounds) in
  let l name = match Hashtbl.find_opt layers name with Some l -> l | None -> layer name in
  let per a b = if b > 0. then a /. b else 0. in
  let self_s name = (l name).self_ns /. 1e9 /. r in
  let cnt name = (l name).count /. r in
  let ns_per name = per (l name).self_ns (l name).count in
  let words_per name = per (l name).words (l name).count in
  let c name = count name /. r in
  let v = count "validator.blocks" in
  [ ("image.count", cnt "image", "count");
    ("image.self_s", self_s "image", "s");
    ("image.p50_ms", median (Array.of_list (l "image").samples), "ms");
    ("image.alloc_mb", mb_of_words (l "image").words /. r, "MB");
    ("interp.guest_insns", cnt "interp", "count");
    ("interp.self_s", self_s "interp", "s");
    ("interp.ns_per_insn", ns_per "interp", "ns");
    ("interp.words_per_insn", words_per "interp", "words");
    ("exec.host_insns", cnt "exec", "count");
    ("exec.self_s", self_s "exec", "s");
    ("exec.ns_per_insn", ns_per "exec", "ns");
    ("exec.words_per_insn", words_per "exec", "words");
    ("translate.blocks", cnt "translate", "count");
    ("translate.self_s", self_s "translate", "s");
    ("translate.ns_per_block", ns_per "translate", "ns");
    ("translate.words_per_block", words_per "translate", "words");
    ("cache.evictions", c "cache.evictions", "count");
    ("cache.retranslations", c "cache.retranslations", "count");
    ("cache.chains", c "cache.chains", "count");
    ("trap.count", cnt "trap", "count");
    ("trap.patches", c "trap.patches", "count");
    ("trap.fixups", c "trap.fixups", "count");
    ("trap.self_s", self_s "trap", "s");
    ("trap.ns_per_trap", ns_per "trap", "ns");
    ("dispatch.steps", c "dispatch.steps", "count");
    ("dispatch.ns_per_step", per (l "dispatch").self_ns (count "dispatch.steps"), "ns");
    ("scheduler.self_s", self_s "scheduler", "s");
    ("scheduler.rounds", c "scheduler.rounds", "count");
    ("scheduler.defers", c "scheduler.defers", "count");
    ("scheduler.restarts", c "scheduler.restarts", "count");
    ("scheduler.demotions", c "scheduler.demotions", "count");
    ("session.hit_ratio", per (count "session.hits") (count "session.dispatches"), "ratio");
    ("analysis.blocks", cnt "analysis", "count");
    ("analysis.iterations", c "analysis.iterations", "count");
    ("analysis.ns_per_block", ns_per "analysis", "ns");
    ("aot.blocks", cnt "aot", "count");
    ("aot.ns_per_block", ns_per "aot", "ns");
    ("validator.blocks", c "validator.blocks", "count");
    ("validator.decided", c "validator.decided", "count");
    ("validator.bailouts", c "validator.bailouts", "count");
    ("validator.decided_ratio", per (count "validator.decided") v, "ratio");
    ("validator.self_s", self_s "validator", "s");
    ("validator.bailout_s", (l "validator.bailout").self_ns /. 1e9 /. r, "s");
    ("validator.paths", c "validator.paths", "count");
    ("validator.residue_cases", c "validator.residue_cases", "count");
    ("gc.minor_words", minor_words /. r, "words");
    ("gc.major_collections", majors /. r, "count");
    ("gc.top_heap_mb", mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words), "MB");
    ("trace.overhead", overhead, "ratio") ]

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         let v = if Float.is_finite v then v else 0. in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let drive (wl : _ workload) ~seed ~seconds ~traced =
  (* set up several times and keep the median: one setup of a few ms
     does not repeat within a tenth *)
  let setup_times = ref [] and prep = ref None in
  while
    let k = List.length !setup_times in
    k < min_setups || (k < max_setups && List.fold_left ( +. ) 0. !setup_times < setup_budget_s)
  do
    (* a discarded repetition's data must not inflate peak_heap_mb *)
    prep := None;
    Gc.compact ();
    let t0 = item_clock () in
    prep := Some (wl.setup ~seed);
    setup_times := (item_clock () -. t0) :: !setup_times
  done;
  let setup_times = Array.of_list !setup_times in
  let p = Option.get !prep in
  let n = Array.length (wl.items p) in
  let digests = Array.make n "" in
  let plain = fresh_totals n and tr = fresh_totals n in
  let traced_rounds = ref 0 in
  let minor = ref 0. and majors = ref 0. in
  (* the run lasts [seconds] of timed item work; checks are not timed *)
  let continue () = plain.items = 0 || plain.busy_s < seconds in
  while continue () do
    round wl p plain ~traced:false ~digests;
    if traced then begin
      let g0 = Gc.quick_stat () in
      reset_stack ();
      round wl p tr ~traced:true ~digests;
      let g1 = Gc.quick_stat () in
      minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      majors := !majors +. float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
      incr traced_rounds
    end
  done;
  let problems = List.rev_append tr.problems plain.problems in
  (* Each item's latency is the median over the rounds, so a burst of
     host noise in one round does not move it; a rate is one round's
     work over the sum of those medians. *)
  let lat = Array.map (fun l -> median (Array.of_list l)) plain.lat_ms in
  let rounds = float_of_int (plain.items / n) in
  let rate x = x /. rounds /. (Array.fold_left ( +. ) 0. lat /. 1e3) in
  let top_heap_mb = mb_of_words (float_of_int (Gc.stat ()).Gc.top_heap_words) in
  Printf.printf "workload %d items x %d rounds, %d ops attempted, %d failed, %.2fs timed\n" n
    (plain.items / max 1 n) plain.ops plain.failed plain.busy_s;
  if plain.failed > 0 then Printf.printf "failed operations: %s\n" wl.fault;
  List.iteri (fun k s -> if k < 20 then Printf.printf "CHECK FAILED: %s\n" s) problems;
  let metrics =
    if not traced then
      [ ("setup_s", median setup_times, "s");
        ("cells_per_s", rate (float_of_int plain.items), "1/s");
        ("guest_mips", rate plain.guest_insns /. 1e6, "M/s");
        ("sessions_per_s", rate (float_of_int plain.sessions), "1/s");
        ("blocks_per_s", rate (float_of_int plain.blocks), "1/s");
        ("item_p50_ms", percentile 50. lat, "ms");
        ("item_p90_ms", percentile 90. lat, "ms");
        ("peak_heap_mb", top_heap_mb, "MB") ]
    else
      per_layer ~rounds:!traced_rounds
        ~overhead:(tr.busy_s /. (plain.busy_s *. float_of_int tr.items /. float_of_int plain.items))
        ~minor_words:!minor ~majors:!majors
  in
  List.iter (fun (name, v, unit) -> Printf.printf "  %-28s %14.6g %s\n" name v unit) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (problems = []) (plain.ops + tr.ops) (plain.failed + tr.failed) (json_metrics metrics)

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-cells|oracle|serve|verify [--seed N] [--seconds S] [--trace 0|1]\n\
    \       main.exe selftest [--seed N]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "selftest" ] -> exit (Selftest.run ~seed:1)
  | [ "selftest"; "--seed"; n ] when int_of_string_opt n <> None ->
    exit (Selftest.run ~seed:(int_of_string n))
  | _ ->
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) kv
    then usage ();
    let get ?default k =
      match (List.assoc_opt k kv, default) with
      | Some v, _ | None, Some v -> v
      | None, None -> usage ()
    in
    let int_arg k ~default =
      match int_of_string_opt (get ~default k) with Some n when n >= 0 -> n | _ -> usage ()
    in
    let seed = int_arg "seed" ~default:"1" in
    let seconds = float_of_int (max 1 (int_arg "seconds" ~default:"20")) in
    let traced = match get ~default:"0" "trace" with "0" -> false | "1" -> true | _ -> usage () in
    match get "workload" with
    | "paper-cells" -> drive Cells.workload ~seed ~seconds ~traced
    | "oracle" -> drive Oracle.workload ~seed ~seconds ~traced
    | "serve" -> drive Serve.workload ~seed ~seconds ~traced
    | "verify" -> drive Verify.workload ~seed ~seconds ~traced
    | _ -> usage ()
