(* serve: [Scheduler.run] over seeded tenant populations under EH. Each
   population mixes steady, noisy and storm tenants over one shared code
   cache bounded tightly enough to evict; arrivals outnumber the live
   slots, so some admissions are deferred, and a few sessions carry an
   injected crash the supervisor must restart. *)

open Common
module Srv = Mda_server
module Rng = Mda_util.Rng

let populations = 4
let tenants = 4
let sessions_per_tenant = 5
let crashes = 3

let config =
  { Srv.Scheduler.default_config with
    Srv.Scheduler.capacity = Some 200;
    max_live = 4;
    queue_limit = tenants * sessions_per_tenant }

type population = {
  storm : int;
  oracles : reference array;  (** by tenant id *)
  specs : Srv.Scheduler.spec list;
}

type prep = { pops : population array; order : int array }

(* The storm tenant's patches are always refused and never degrade, so
   under EH it traps on every misaligned execution until the scheduler
   demotes it. *)
let storm_config base =
  { base with
    Bt.Runtime.faults =
      { Bt.Runtime.no_faults with
        Bt.Runtime.patch_refuse = Some (fun ~guest_addr:_ ~attempt:_ -> true);
        degrade_after = max_int } }

(* Population [k]'s tenants — their programs and which one storms or is
   noisy — are fixed, so every seed runs the same code volume; the seed
   decides the population's arrival schedule and its crash sites. *)
let population ~seed k =
  let storm = k mod tenants and noisy = (k + 1) mod tenants in
  let tspecs =
    Srv.Tenants.derive ~noisy:[ noisy ] ~storm:[ storm ] ~seed:(Int64.of_int (1000 + k)) ~tenants ()
  in
  let rng = Rng.create (Int64.of_int ((seed * 1_000_003) + k)) in
  let oracles =
    Array.of_list
      (List.map
         (fun ts ->
           let entry, _ = Srv.Tenants.fresh_mem ts in
           reference (fun () -> snd (Srv.Tenants.fresh_mem ts)) ~entry)
         tspecs)
  in
  let n = tenants * sessions_per_tenant in
  let crash_sids = Array.sub (shuffle ~seed:(Rng.int rng 1_000_000) (Array.init n Fun.id)) 0 crashes in
  let specs =
    List.init n (fun sid ->
        let ts = List.nth tspecs (sid mod tenants) in
        let entry, _ = Srv.Tenants.fresh_mem ts in
        let mech = Srv.Tenants.mechanism_of ts "eh" in
        let base = Bt.Runtime.default_config mech in
        { Srv.Scheduler.tid = ts.Srv.Tenants.tid;
          arrival = Rng.int_in rng 0 (2 * sessions_per_tenant);
          entry;
          fresh_mem = (fun () -> snd (Srv.Tenants.fresh_mem ts));
          config = (if ts.Srv.Tenants.tid = storm then storm_config base else base);
          crash_at = (if Array.mem sid crash_sids then Some (Rng.int_in rng 3 40) else None);
          first_fuel = None })
  in
  { storm; oracles; specs }

let setup ~seed =
  let pops = Array.init populations (population ~seed) in
  { pops; order = shuffle ~seed (Array.init populations Fun.id) }

(* Output checks of one scheduler run, against each tenant's
   interpreter reference and the scheduler's own contract. *)
let check (pop : population) (o : Srv.Scheduler.outcome) =
  let r = o.Srv.Scheduler.report in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if r.Srv.Scheduler.admission_rejects <> 0 then fail "%d sessions rejected" r.admission_rejects;
  List.iteri
    (fun sid fin ->
      match fin with
      | None -> fail "session %d never ran" sid
      | Some (s : Srv.Session.t) ->
        if s.Srv.Session.status <> Srv.Session.Halted then fail "session %d did not halt" sid
        else begin
          let st = snapshot s.Srv.Session.rt.Bt.Runtime.cpu in
          if not (state_eq st pop.oracles.(s.Srv.Session.tid).final) then
            fail "session %d (tenant %d) final state %s differs from its oracle %s" sid
              s.Srv.Session.tid (pp_state st) (pp_state pop.oracles.(s.Srv.Session.tid).final)
        end)
    o.Srv.Scheduler.finals;
  (match List.find_opt (fun (t : Srv.Scheduler.tenant_report) -> t.t_tid = pop.storm) r.tenants with
  | Some t when t.demoted -> ()
  | _ -> fail "storm tenant %d was not demoted" pop.storm);
  List.iter
    (fun (s : Srv.Scheduler.session_report) ->
      if s.restarts > config.max_restarts then
        fail "session %d restarted %d times, cap %d" s.sid s.restarts config.max_restarts)
    r.sessions;
  List.rev !problems

(* Direct translations over the blocks the sessions discovered: the
   scheduler builds each session's runtime internally, so translation
   inside a slice cannot be split from host execution. *)
let translate_discovered (o : Srv.Scheduler.outcome) =
  List.iter
    (function
      | None -> ()
      | Some (s : Srv.Session.t) ->
        let cache = Bt.Code_cache.create () in
        Hashtbl.iter
          (fun _ b ->
            span ~traced:true "translate" ~n:(fun _ -> 1.) (fun () ->
                try
                  ignore
                    (Bt.Translate.translate ~cache ~policy_of:(fun _ -> Bt.Translate.Normal) b)
                with Bt.Translate.Error _ -> ()))
          s.Srv.Session.rt.Bt.Runtime.blocks_decoded)
    o.Srv.Scheduler.finals

let run ~traced p k =
  let pop = p.pops.(k) in
  let specs =
    if not traced then pop.specs
    else
      List.map
        (fun (s : Srv.Scheduler.spec) ->
          let fresh = s.fresh_mem in
          { s with fresh_mem = (fun () -> span ~traced "image" ~n:(fun _ -> 1.) ~sample:true fresh) })
        pop.specs
  in
  let o = span ~traced "scheduler" (fun () -> Srv.Scheduler.run ~tenants config specs) in
  let r = o.Srv.Scheduler.report and agg = o.Srv.Scheduler.agg_stats in
  if traced then begin
    bump "scheduler.rounds" (float_of_int r.rounds);
    bump "scheduler.defers" (float_of_int r.admission_defers);
    bump "scheduler.restarts" (float_of_int r.restarts);
    bump "scheduler.demotions" (float_of_int r.demotions);
    List.iter
      (fun (s : Srv.Scheduler.session_report) ->
        bump "session.hits" (float_of_int s.hits);
        bump "session.dispatches" (float_of_int s.dispatches);
        bump "dispatch.steps" (float_of_int s.dispatches);
        bump "trap.patches" (float_of_int s.patches))
      r.sessions;
    bump "cache.evictions" (float_of_int r.evictions);
    bump "cache.retranslations" (float_of_int agg.Bt.Run_stats.retranslations);
    bump "cache.chains" (float_of_int agg.chains);
    bump "trap.fixups" (Int64.to_float agg.traps -. float_of_int agg.patches);
    (* inside Scheduler.run only counts are observable: interpretation,
       host execution and traps are credited with work but no time *)
    credit "interp" ~n:(Int64.to_float agg.interp_insns) ~ns:0. ~words:0.;
    credit "exec" ~n:(Int64.to_float agg.host_insns) ~ns:0. ~words:0.;
    credit "trap" ~n:(Int64.to_float agg.traps) ~ns:0. ~words:0.;
    translate_discovered o
  end;
  let halted =
    List.filter
      (function Some (s : Srv.Session.t) -> s.Srv.Session.status = Srv.Session.Halted | None -> false)
      o.Srv.Scheduler.finals
  in
  let sum f =
    List.fold_left
      (fun acc -> function Some (s : Srv.Session.t) -> acc + f pop.oracles.(s.Srv.Session.tid) | None -> acc)
      0 halted
  in
  { ops = List.length pop.specs;
    failed = 0;
    check = (fun () -> List.map (Printf.sprintf "population %d: %s" k) (check pop o));
    guest_insns = float_of_int (sum (fun r -> Int64.to_int r.guest_insns));
    sessions = List.length halted;
    blocks = sum (fun r -> r.blocks);
    digest =
      Printf.sprintf "%s;rounds=%d;restarts=%d;demotions=%d;defers=%d" (stats_digest agg) r.rounds
        r.restarts r.demotions r.admission_defers }

let workload = { fault = "none expected"; setup; items = (fun p -> p.order); run }
