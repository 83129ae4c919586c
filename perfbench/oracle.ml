(* oracle: [Runtime.interpret_program] over all 54 Table-I rows, in
   profiled-interpreter mode and in native mode — the ground truth
   behind Table I, Figures 1 and 15, the train profiles and every
   differential check. No code cache, no translation, no traps. *)

open Common
module W = Mda_workloads

let scale = 0.05

let modes = [| ("interpreted", Bt.Interp.Interpreted { profile = true }); ("native", Bt.Interp.Native) |]

type prep = { programs : W.Workload.t array; order : int array }

let setup ~seed =
  let programs =
    Array.of_list (List.map (fun (r : W.Spec.row) -> W.Workload.instantiate ~scale r.W.Spec.name) W.Spec.table1)
  in
  let order = shuffle ~seed (Array.init (2 * Array.length programs) Fun.id) in
  { programs; order }

(* The generator's own predictions are the expected counts. *)
let check (w : W.Workload.t) (st : Bt.Run_stats.t) =
  List.concat
    [ (if st.Bt.Run_stats.stop <> Bt.Run_stats.Halted then check_fail "did not halt" else []);
      (if st.memrefs <> Int64.of_int (W.Workload.expected_refs w) then
         check_fail "%Ld memory references, generator predicts %d" st.memrefs
           (W.Workload.expected_refs w)
       else []);
      (if st.mdas <> Int64.of_int (W.Workload.expected_mdas w) then
         check_fail "%Ld MDAs, generator predicts %d" st.mdas (W.Workload.expected_mdas w)
       else []) ]

let run ~traced p i =
  let w = p.programs.(i / 2) and mname, mode = modes.(i mod 2) in
  let mem = span ~traced "image" ~n:(fun _ -> 1.) ~sample:true (fun () -> W.Workload.fresh_memory w) in
  let st, _ =
    span ~traced "interp"
      ~n:(fun ((st : Bt.Run_stats.t), _) -> Int64.to_float st.Bt.Run_stats.guest_insns)
      (fun () -> Bt.Runtime.interpret_program ~mode ~mem ~entry:(W.Workload.entry w) ())
  in
  { ops = 1;
    failed = 0;
    check = (fun () -> List.map (Printf.sprintf "%s/%s: %s" w.W.Workload.name mname) (check w st));
    guest_insns = Int64.to_float st.guest_insns;
    sessions = 1;
    blocks = st.blocks;
    digest = stats_digest st }

let workload = { fault = "none expected"; setup; items = (fun p -> p.order); run }
