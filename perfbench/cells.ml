(* paper-cells: every selected Table-I benchmark under each runtime
   mechanism of the overall comparison, at one fixed scale, each cell on
   a fresh machine — the work of `mdabench all`. *)

open Common
module W = Mda_workloads
module E = Mda_harness.Experiment

let scale = 0.05

let mechanism_names = [| "direct"; "static-profiling"; "dynamic-profiling"; "eh"; "dpeh"; "sa" |]

type bench = {
  w : W.Workload.t;
  mechs : Bt.Mechanism.t array;  (** by [mechanism_names] index *)
  ref_ : reference;
  mda_sites : int;  (** generator's count of sites that may misalign *)
}

type prep = { benches : bench array; order : int array }

(* Sites the generator gave a behaviour that can misalign: an upper
   bound on what any mechanism's trap handler may patch. *)
let mda_sites (w : W.Workload.t) =
  List.fold_left
    (fun n ((g : W.Gen.group), _) -> if g.W.Gen.behavior = W.Gen.Aligned then n else n + g.W.Gen.sites)
    0 w.W.Workload.program.W.Gen.groups

(* Program generation, train-input profile, static analysis and the
   reference run: everything a cell needs that is not the cell. *)
let prepare_bench name =
  let w = W.Workload.instantiate ~scale name in
  let entry = W.Workload.entry w in
  let train =
    let tw = W.Workload.instantiate ~scale ~input:W.Gen.Train name in
    let _, profile =
      Bt.Runtime.interpret_program ~mem:(W.Workload.fresh_memory tw) ~entry:(W.Workload.entry tw) ()
    in
    Bt.Profile.summarize profile
  in
  let sa =
    let a = Mda_analysis.Dataflow.analyze (W.Workload.fresh_memory w) ~entry in
    Mda_analysis.Dataflow.summary a
  in
  let mechs =
    [| Bt.Mechanism.Direct;
       Bt.Mechanism.Static_profiling train;
       E.best_dynamic;
       E.best_eh;
       E.best_dpeh;
       Bt.Mechanism.Static_analysis { summary = sa; unknown = Bt.Mechanism.Sa_fallback } |]
  in
  { w; mechs; ref_ = reference (fun () -> W.Workload.fresh_memory w) ~entry; mda_sites = mda_sites w }

let nm = Array.length mechanism_names

let setup ~seed =
  let benches = Array.of_list (List.map prepare_bench W.Spec.selected_names) in
  let order = shuffle ~seed (Array.init (Array.length benches * nm) Fun.id) in
  { benches; order }

let describe p i =
  Printf.sprintf "%s/%s" p.benches.(i / nm).w.W.Workload.name mechanism_names.(i mod nm)

(* Output checks of one cell, made apart from the runtime under test. *)
let check (b : bench) ~mech (st : Bt.Run_stats.t) (final : state) =
  List.concat
    [ (if st.Bt.Run_stats.stop <> Bt.Run_stats.Halted then
         check_fail "did not halt (%s)" (Bt.Run_stats.stop_reason_to_string st.stop)
       else []);
      (if not (state_eq final b.ref_.final) then
         check_fail "final state %s differs from the interpreter's %s" (pp_state final)
           (pp_state b.ref_.final)
       else []);
      (if mech = "direct" && st.traps <> 0L then check_fail "direct took %Ld traps" st.traps
       else []);
      (if st.patches > b.mda_sites then
         check_fail "%d handler patches exceed the generator's %d MDA sites" st.patches b.mda_sites
       else []) ]

(* Traced execution of one runtime: [Runtime.run]'s own loop over the
   public step functions, with each step's time split between the
   layers whose counters it moved. A translating step is split at the
   translation event: before it is translation, after it host
   execution. Trap-handler time is a nested span, subtracted from both. *)
let traced_run (rt : Bt.Runtime.t) ~entry ~translated_at =
  Bt.Runtime.install_handler rt;
  let cpu = rt.Bt.Runtime.cpu in
  let c = Bt.Runtime.counters rt in
  (match cpu.Machine.Cpu.handler with
  | Some h ->
    let trap = layer "trap" in
    cpu.Machine.Cpu.handler <-
      Some
        (fun ~pc ~addr insn ->
          enter trap;
          let p0 = Bt.Counters.get c Bt.Counters.Handler_patches in
          let a = h ~pc ~addr insn in
          leave ~n:1. ();
          bump "trap.patches"
            (Int64.to_float (Int64.sub (Bt.Counters.get c Bt.Counters.Handler_patches) p0));
          if a = Machine.Cpu.Emulate then bump "trap.fixups" 1.;
          a)
  | None -> ());
  let step_layer = layer "step" in
  let pc = ref entry and stop = ref None in
  let gap_from = ref (now_ns ()) in
  while !stop = None do
    if Bt.Runtime.total_guest_insns rt >= rt.Bt.Runtime.config.Bt.Runtime.max_guest_insns then
      stop := Some Bt.Run_stats.Insn_limit
    else begin
      let ii0 = Bt.Counters.get c Bt.Counters.Interp_insns in
      let tr0 = Bt.Counters.get c Bt.Counters.Translations in
      let hi0 = cpu.Machine.Cpu.insns in
      translated_at := None;
      let t0 = now_ns () in
      credit "dispatch" ~n:0. ~ns:(Int64.to_float (Int64.sub t0 !gap_from)) ~words:0.;
      enter step_layer;
      let w0 = Gc.minor_words () in
      (match Bt.Runtime.step rt !pc with
      | `Continue next -> pc := next
      | `Halt -> stop := Some Bt.Run_stats.Halted
      | `Aot_miss g -> stop := Some (Bt.Run_stats.Aot_miss { guest_addr = g })
      | exception Machine.Cpu.Out_of_fuel -> stop := Some Bt.Run_stats.Fuel_exhausted);
      let _, self, self_w = leave_raw () in
      bump "dispatch.steps" 1.;
      let d_interp = Int64.sub (Bt.Counters.get c Bt.Counters.Interp_insns) ii0 in
      let d_tr = Int64.sub (Bt.Counters.get c Bt.Counters.Translations) tr0 in
      let d_host = Int64.to_float (Int64.sub cpu.Machine.Cpu.insns hi0) in
      if d_interp > 0L then
        credit "interp" ~n:(Int64.to_float d_interp) ~ns:self ~words:self_w
      else begin
        let tr_ns, tr_w =
          match !translated_at with
          | Some (t, w) when d_tr > 0L ->
            (Int64.to_float (Int64.sub t t0), w -. w0)
          | _ -> (0., 0.)
        in
        if d_tr > 0L then credit "translate" ~n:(Int64.to_float d_tr) ~ns:tr_ns ~words:tr_w;
        if d_host > 0. || d_tr > 0L then
          credit "exec" ~n:d_host ~ns:(self -. tr_ns) ~words:(self_w -. tr_w)
        else credit "dispatch" ~n:0. ~ns:self ~words:self_w
      end;
      gap_from := now_ns ()
    end
  done;
  Bt.Runtime.stats rt ~stop:(Option.get !stop)

let run ~traced p i =
  let b = p.benches.(i / nm) and m = i mod nm in
  let mech = mechanism_names.(m) in
  let mem = span ~traced "image" ~n:(fun _ -> 1.) ~sample:true (fun () -> W.Workload.fresh_memory b.w) in
  let entry = W.Workload.entry b.w in
  let translated_at = ref None in
  let on_event =
    if traced then
      Some
        (function
          | Bt.Runtime.Ev_translate _ -> translated_at := Some (now_ns (), Gc.minor_words ())
          | _ -> ())
    else None
  in
  let config = { (Bt.Runtime.default_config b.mechs.(m)) with Bt.Runtime.on_event } in
  let rt = Bt.Runtime.create ~config ~mem () in
  let st =
    if traced then traced_run rt ~entry ~translated_at else Bt.Runtime.run rt ~entry
  in
  if traced then begin
    bump "cache.evictions" (float_of_int st.Bt.Run_stats.evictions);
    bump "cache.retranslations" (float_of_int st.retranslations);
    bump "cache.chains" (float_of_int st.chains)
  end;
  { ops = 1;
    failed = 0;
    check =
      (fun () ->
        List.map (fun s -> describe p i ^ ": " ^ s) (check b ~mech st (snapshot rt.Bt.Runtime.cpu)));
    guest_insns = Int64.to_float b.ref_.guest_insns;
    sessions = 1;
    blocks = b.ref_.blocks;
    digest = stats_digest st }

let workload = { fault = "none expected"; setup; items = (fun p -> p.order); run }
