(* Shared pieces of the benchmark: the clock, the per-layer span
   recorder, the reference interpreter the output checks compare
   against, and the record every timed item returns. *)

module Bt = Mda_bt
module Machine = Mda_machine

let now_ns () = Monotonic_clock.now ()

(* Items and setups are timed in processor time of this process (user
   plus system). The benchmark is single-threaded and does no I/O, so
   this is wall time minus the time the host gave the CPU to someone
   else — which on a shared host is most of the run-to-run noise. *)
let item_clock () = Sys.time ()

(* --- per-layer spans ----------------------------------------------------

   A layer accumulates a work count, its self time (span duration minus
   the nested spans of other layers) and the minor words allocated in
   that self time. Spans nest through an explicit stack so a trap taken
   inside translated code is subtracted from host execution. Nothing
   here runs unless the traced mode is on. *)

type layer = {
  lname : string;
  mutable count : float;
  mutable self_ns : float;
  mutable words : float;
  mutable samples : float list;  (** per-span self ms, for medians *)
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 16

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
    let l = { lname = name; count = 0.; self_ns = 0.; words = 0.; samples = [] } in
    Hashtbl.add layers name l;
    l

let reset_layers () = Hashtbl.reset layers

(* Free-standing per-layer counts (evictions, defers, residue cases …). *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let bump name v =
  Hashtbl.replace counts name (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.)

let count name = Option.value (Hashtbl.find_opt counts name) ~default:0.

type frame = { fl : layer; t0 : int64; w0 : float; mutable child_ns : float; mutable child_w : float }

let stack : frame list ref = ref []

let reset_stack () = stack := []

let enter l =
  stack := { fl = l; t0 = now_ns (); w0 = Gc.minor_words (); child_ns = 0.; child_w = 0. } :: !stack

(* Close the innermost span without crediting its layer: returns the
   span's self time (ns) and self allocation (minor words), both net of
   nested spans, and charges the whole span to its parent as a child. *)
let leave_raw () =
  match !stack with
  | [] -> invalid_arg "Common.leave_raw: no open span"
  | f :: rest ->
    let dur = Int64.to_float (Int64.sub (now_ns ()) f.t0) in
    let w = Gc.minor_words () -. f.w0 in
    stack := rest;
    (match rest with
    | p :: _ ->
      p.child_ns <- p.child_ns +. dur;
      p.child_w <- p.child_w +. w
    | [] -> ());
    (f.fl, dur -. f.child_ns, w -. f.child_w)

(* Add a measured piece of work to a layer. *)
let credit name ~n ~ns ~words =
  let l = layer name in
  l.count <- l.count +. n;
  l.self_ns <- l.self_ns +. ns;
  l.words <- l.words +. words

(* Close the innermost span, crediting its layer with [n] units of work
   and its self time (optionally kept as a latency sample). *)
let leave ?(n = 0.) ?(sample = false) () =
  let l, self, w = leave_raw () in
  credit l.lname ~n ~ns:self ~words:w;
  if sample then l.samples <- (self /. 1e6) :: l.samples

(* [span name ~n f] times [f ()] as one span of layer [name] when
   [traced]; otherwise it is just [f ()]. *)
let span ~traced name ?(n = fun _ -> 0.) ?(sample = false) f =
  if not traced then f ()
  else begin
    enter (layer name);
    match f () with
    | r ->
      leave ~n:(n r) ~sample ();
      r
    | exception e ->
      leave ();
      raise e
  end

(* --- statistics -------------------------------------------------------- *)

(* Nearest-rank percentile of a non-empty array ([p] in (0, 100]). *)
let percentile p xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs = if Array.length xs = 0 then 0. else percentile 50. xs

(* --- seeded order ------------------------------------------------------- *)

let shuffle ~seed a =
  let rng = Mda_util.Rng.create (Int64.of_int (seed * 7919 + 17)) in
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Mda_util.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* --- guest state and the reference interpreter ------------------------- *)

(* Digest of a whole guest memory: a polynomial hash over its 32-bit
   words with an odd multiplier, so changing any one word always changes
   the digest. Five times cheaper than MD5 over the 8 MiB image, which
   keeps the checks from dominating a run's wall time. *)
let mem_digest (m : Machine.Memory.t) =
  let b = Machine.Memory.raw m in
  let h = ref (Bytes.length b) in
  let i = ref 0 and n = Bytes.length b - 3 in
  while !i < n do
    h := (!h * 0x100000001b3) + Int32.to_int (Bytes.get_int32_le b !i) + 1;
    i := !i + 4
  done;
  for j = !i to Bytes.length b - 1 do
    h := (!h * 0x100000001b3) + Bytes.get_uint8 b j
  done;
  !h

(* Final guest-visible state: registers R0–R7 and a digest of the whole
   guest memory. *)
type state = { regs : int64 array; mem : int }

let snapshot (cpu : Machine.Cpu.t) =
  { regs = Array.init 8 (fun i -> Machine.Cpu.get cpu i); mem = mem_digest cpu.Machine.Cpu.mem }

let state_eq a b = a.regs = b.regs && a.mem = b.mem

let pp_state s =
  Printf.sprintf "regs=[%s] mem=%x"
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%Lx") s.regs)))
    s.mem

(* What the checks compare a run against. *)
type reference = {
  final : state;
  guest_insns : int64;  (** exact dynamic guest instructions to Halt *)
  blocks : int;  (** distinct guest blocks executed to Halt *)
}

(* The reference run: the same block-at-a-time loop as
   [Runtime.interpret_program], written here over the public [Block] and
   [Interp] functions so the final registers are observable (the library
   function keeps its CPU to itself). [reference] cross-checks the loop
   against [Runtime.interpret_program] on a second fresh image: equal
   memory digest, instruction count and cycle count. *)
let reference fresh ~entry =
  let mem = fresh () in
  let cost = Machine.Cost_model.default in
  let hier = Machine.Hierarchy.create cost in
  let cpu = Machine.Cpu.create ~code_base:Bt.Layout.code_cache_base ~mem ~hier ~cost () in
  let blocks = Hashtbl.create 64 in
  let mode = Bt.Interp.Interpreted { profile = true } in
  let pc = ref entry and halted = ref false and insns = ref 0L in
  while not !halted do
    let b =
      match Hashtbl.find_opt blocks !pc with
      | Some b -> b
      | None -> (
        match Bt.Block.discover mem ~pc:!pc with
        | Ok b ->
          Hashtbl.replace blocks !pc b;
          b
        | Error e -> failwith (Format.asprintf "reference: %a" Bt.Block.pp_error e))
    in
    insns := Int64.add !insns (Int64.of_int (Bt.Block.length b));
    match Bt.Interp.exec_block cpu mode b ~on_mem:(fun _ -> ()) with
    | Bt.Interp.Fallthrough next -> pc := next
    | Bt.Interp.Halted -> halted := true
  done;
  let final = snapshot cpu in
  let mem2 = fresh () in
  let st, _ = Bt.Runtime.interpret_program ~mode ~mem:mem2 ~entry () in
  if st.Bt.Run_stats.stop <> Bt.Run_stats.Halted
     || st.Bt.Run_stats.guest_insns <> !insns
     || st.Bt.Run_stats.cycles <> cpu.Machine.Cpu.cycles
     || mem_digest mem2 <> final.mem
  then failwith "reference interpreter disagrees with Runtime.interpret_program";
  { final; guest_insns = !insns; blocks = Hashtbl.length blocks }

(* --- what one timed item reports -------------------------------------- *)

type outcome = {
  ops : int;  (** operations attempted by the item *)
  failed : int;  (** of which failed (verify's budget bail-outs) *)
  check : unit -> string list;
      (** the item's output checks, run after its timing; [] = correct *)
  guest_insns : float;  (** exact guest instructions processed *)
  sessions : int;  (** guest programs run to Halt *)
  blocks : int;  (** distinct guest blocks of the completed programs, or checked *)
  digest : string;
      (** the item's simulated statistics, compared between the traced
          and the untraced execution of the same item *)
}

let stats_digest (s : Bt.Run_stats.t) =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) (Bt.Run_stats.to_kv s))

(* A workload: [setup] prepares everything that is not timed; [items]
   lists one round of items, in the order the seed decides; [run]
   performs one item, recording spans when [traced]; [fault] names what
   makes its failed operations fail. *)
type 'p workload = {
  fault : string;
  setup : seed:int -> 'p;
  items : 'p -> int array;
  run : traced:bool -> 'p -> int -> outcome;
}

let check_fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt
