type action = Enqueued | Dropped

type t = {
  enqueue : Packet.t -> action;
  dequeue : unit -> Packet.t option;
  length : unit -> int;
  bytes : unit -> int;
  kind : string;
}

(* A plain FIFO buffer shared by every discipline — a growable ring
   ([Sim.Ring]) rather than [Stdlib.Queue], so steady-state enqueues
   allocate nothing (a Queue cell per push is pure minor-GC pressure on
   the per-packet path; lint rule L6 enforces the choice). *)
module Fifo = struct
  type nonrec t = { q : Packet.t Sim.Ring.t; mutable bytes : int }

  let create () = { q = Sim.Ring.create (); bytes = 0 }

  let[@corelite.hot] push t pkt =
    Sim.Ring.push t.q pkt;
    t.bytes <- t.bytes + pkt.Packet.size

  (* The option result is the one allocation this API keeps: callers
     need the atomic empty-test-and-pop. It stays: the [Some] dies in
     the minor heap within the dequeue, while a sentinel or handle
     dequeue would change the element type every qdisc and link hook
     shares. A known, waived cost inside the hot-path words budget. *)
  let[@corelite.hot] pop t =
    if Sim.Ring.is_empty t.q then None
    else begin
      let pkt = Sim.Ring.pop_exn t.q in
      t.bytes <- t.bytes - pkt.Packet.size;
      Some pkt (* lint: alloc-ok -- option dequeue API, see above *)
    end

  let[@corelite.hot] peek t =
    if Sim.Ring.is_empty t.q then None
    else Some (Sim.Ring.peek_exn t.q) (* lint: alloc-ok -- option API *)

  let[@corelite.hot] length t = Sim.Ring.length t.q
  let[@corelite.hot] bytes t = t.bytes
end

let droptail ~capacity =
  if capacity <= 0 then invalid_arg "Qdisc.droptail: capacity must be positive";
  let fifo = Fifo.create () in
  let enqueue pkt =
    if Fifo.length fifo >= capacity then Dropped
    else begin
      Fifo.push fifo pkt;
      Enqueued
    end
  in
  {
    enqueue;
    dequeue = (fun () -> Fifo.pop fifo);
    length = (fun () -> Fifo.length fifo);
    bytes = (fun () -> Fifo.bytes fifo);
    kind = "droptail";
  }

type red_params = {
  capacity : int;
  min_thresh : float;
  max_thresh : float;
  max_p : float;
  queue_weight : float;
  mean_pkt_time : float;
}

let default_red_params =
  {
    capacity = 40;
    min_thresh = 5.;
    max_thresh = 15.;
    max_p = 0.1;
    queue_weight = 0.002;
    mean_pkt_time = 0.002;
  }

(* Shared RED average-queue machinery; [fred] reuses it with its own
   per-flow admission rule. *)
module Red_state = struct
  (* The EWMA average lives in its own all-float record: OCaml stores
     such records flat, so the per-enqueue [update_avg] write is an
     unboxed store. As a [mutable avg : float] field of the mixed
     record below, every write would box a fresh float (typelint T1
     flags exactly that pattern). *)
  type avg_cell = { mutable v : float }

  type nonrec t = {
    p : red_params;
    avg : avg_cell;
    mutable count : int;  (* packets since last marked/dropped *)
    mutable idle_since : float option;
  }

  let create p = { p; avg = { v = 0. }; count = -1; idle_since = None }

  let[@corelite.hot] update_avg t ~now ~qlen =
    (match t.idle_since with
    | Some t0 when qlen = 0 ->
      (* Decay the average as if [m] small packets had been transmitted
         during the idle period. *)
      let m = (now -. t0) /. t.p.mean_pkt_time in
      t.avg.v <- t.avg.v *. ((1. -. t.p.queue_weight) ** m);
      t.idle_since <- None
    | Some _ -> t.idle_since <- None
    | None -> ());
    t.avg.v <- t.avg.v +. (t.p.queue_weight *. (float_of_int qlen -. t.avg.v))

  let note_idle t ~now = if t.idle_since = None then t.idle_since <- Some now

  (* Early-drop verdict for the standard RED profile. *)
  let[@corelite.hot] early_drop t rng =
    if t.avg.v < t.p.min_thresh then begin
      t.count <- -1;
      false
    end
    else if t.avg.v >= t.p.max_thresh then begin
      t.count <- 0;
      true
    end
    else begin
      t.count <- t.count + 1;
      let pb = t.p.max_p *. (t.avg.v -. t.p.min_thresh) /. (t.p.max_thresh -. t.p.min_thresh) in
      let denom = 1. -. (float_of_int t.count *. pb) in
      let pa = if denom <= 0. then 1. else pb /. denom in
      (* lint: fault-ok -- RED's own early-drop coin, not fault injection *)
      if Sim.Rng.bernoulli rng pa then begin
        t.count <- 0;
        true
      end
      else false
    end
end

let red ?(params = default_red_params) ~rng ~now () =
  let fifo = Fifo.create () in
  let state = Red_state.create params in
  let enqueue pkt =
    Red_state.update_avg state ~now:(now ()) ~qlen:(Fifo.length fifo);
    if Fifo.length fifo >= params.capacity then Dropped
    else if Red_state.early_drop state rng then Dropped
    else begin
      Fifo.push fifo pkt;
      Enqueued
    end
  in
  let dequeue () =
    let pkt = Fifo.pop fifo in
    if Fifo.length fifo = 0 then Red_state.note_idle state ~now:(now ());
    pkt
  in
  {
    enqueue;
    dequeue;
    length = (fun () -> Fifo.length fifo);
    bytes = (fun () -> Fifo.bytes fifo);
    kind = "red";
  }

let fred ?(params = default_red_params) ?(minq = 2) ~rng ~now () =
  let fifo = Fifo.create () in
  let state = Red_state.create params in
  (* Per-flow state exists only while the flow has packets buffered. *)
  let qlen : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let strikes : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let flow_qlen f = Option.value ~default:0 (Hashtbl.find_opt qlen f) in
  let flow_strikes f = Option.value ~default:0 (Hashtbl.find_opt strikes f) in
  let active () = Hashtbl.length qlen in
  let enqueue pkt =
    let flow = pkt.Packet.flow in
    Red_state.update_avg state ~now:(now ()) ~qlen:(Fifo.length fifo);
    let avgcq = if active () = 0 then state.Red_state.avg.Red_state.v else state.Red_state.avg.Red_state.v /. float_of_int (active ()) in
    let avgcq = Float.max avgcq 1. in
    let fq = float_of_int (flow_qlen flow) in
    let maxq =
      if state.Red_state.avg.Red_state.v >= params.max_thresh then Float.max (float_of_int minq) avgcq
      else params.max_thresh
    in
    if Fifo.length fifo >= params.capacity then Dropped
    else if fq >= maxq || (flow_strikes flow > 1 && fq >= 2. *. avgcq) then begin
      Hashtbl.replace strikes flow (flow_strikes flow + 1);
      Dropped
    end
    else if fq >= Float.max (float_of_int minq) avgcq && Red_state.early_drop state rng then Dropped
    else begin
      Fifo.push fifo pkt;
      Hashtbl.replace qlen flow (flow_qlen flow + 1);
      Enqueued
    end
  in
  let dequeue () =
    match Fifo.pop fifo with
    | None -> None
    | Some pkt ->
      let flow = pkt.Packet.flow in
      let n = flow_qlen flow - 1 in
      if n <= 0 then begin
        Hashtbl.remove qlen flow;
        Hashtbl.remove strikes flow
      end
      else Hashtbl.replace qlen flow n;
      if Fifo.length fifo = 0 then Red_state.note_idle state ~now:(now ());
      Some pkt
  in
  {
    enqueue;
    dequeue;
    length = (fun () -> Fifo.length fifo);
    bytes = (fun () -> Fifo.bytes fifo);
    kind = "fred";
  }

type scheduler = Priority | Weighted_round_robin of int array

let classful ~classes ~classify ~scheduler ~capacity () =
  if classes <= 0 then invalid_arg "Qdisc.classful: classes must be positive";
  if capacity <= 0 then invalid_arg "Qdisc.classful: capacity must be positive";
  (match scheduler with
  | Weighted_round_robin quanta ->
    if Array.length quanta <> classes then
      invalid_arg "Qdisc.classful: one quantum per class";
    Array.iter
      (fun q -> if q <= 0 then invalid_arg "Qdisc.classful: quanta must be positive")
      quanta
  | Priority -> ());
  let queues = Array.init classes (fun _ -> Fifo.create ()) in
  (* WRR state: the class currently holding the token and its remaining
     quantum. *)
  let current = ref 0 in
  let remaining =
    ref (match scheduler with Weighted_round_robin q -> q.(0) | Priority -> 0)
  in
  let enqueue pkt =
    let cls = classify pkt in
    if cls < 0 || cls >= classes then
      invalid_arg "Qdisc.classful: classify out of range";
    if Fifo.length queues.(cls) >= capacity then Dropped
    else begin
      Fifo.push queues.(cls) pkt;
      Enqueued
    end
  in
  let dequeue_priority () =
    let rec scan cls =
      if cls >= classes then None
      else
        match Fifo.pop queues.(cls) with
        | Some pkt -> Some pkt
        | None -> scan (cls + 1)
    in
    scan 0
  in
  let dequeue_wrr quanta =
    (* Visit at most [classes] queues: move the token when the current
       class is empty or its quantum is spent. *)
    let rec scan visited =
      if visited >= classes then None
      else if Fifo.length queues.(!current) = 0 || !remaining <= 0 then begin
        current := (!current + 1) mod classes;
        remaining := quanta.(!current);
        scan (visited + 1)
      end
      else begin
        decr remaining;
        Fifo.pop queues.(!current)
      end
    in
    scan 0
  in
  let dequeue () =
    match scheduler with
    | Priority -> dequeue_priority ()
    | Weighted_round_robin quanta -> dequeue_wrr quanta
  in
  let total f = Array.fold_left (fun acc q -> acc + f q) 0 queues in
  {
    enqueue;
    dequeue;
    length = (fun () -> total Fifo.length);
    bytes = (fun () -> total Fifo.bytes);
    kind = "classful";
  }

let drr ~weight ?(quantum_unit = Packet.default_size) ~capacity () =
  if capacity <= 0 then invalid_arg "Qdisc.drr: capacity must be positive";
  if quantum_unit <= 0 then invalid_arg "Qdisc.drr: quantum must be positive";
  (* Per-flow state (that is the point of this comparator): queue,
     banked deficit, and membership in the active round-robin ring. *)
  let queues : (int, Fifo.t) Hashtbl.t = Hashtbl.create 16 in
  let banked : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let ring : int Sim.Ring.t = Sim.Ring.create () in
  (* The flow currently holding the service token and its remaining
     deficit for this round. *)
  let current = ref None in
  let total_len = ref 0 in
  let total_bytes = ref 0 in
  let quantum flow =
    let w = weight flow in
    if not (Float.is_finite w) || w <= 0. then
      invalid_arg
        (Printf.sprintf "Qdisc.drr: weight of flow %d must be finite and positive (got %h)"
           flow w);
    Stdlib.max 1 (int_of_float (w *. float_of_int quantum_unit))
  in
  let retire flow =
    Hashtbl.remove queues flow;
    Hashtbl.remove banked flow
  in
  let enqueue pkt =
    let flow = pkt.Packet.flow in
    let q =
      match Hashtbl.find_opt queues flow with
      | Some q -> q
      | None ->
        let q = Fifo.create () in
        Hashtbl.add queues flow q;
        q
    in
    if Fifo.length q >= capacity then Dropped
    else begin
      (* Newly backlogged: join the ring. An empty queue can never hold
         the service token (it is retired on drain), so no clash. *)
      if Fifo.length q = 0 then begin
        Sim.Ring.push ring flow;
        Hashtbl.replace banked flow 0
      end;
      Fifo.push q pkt;
      incr total_len;
      total_bytes := !total_bytes + pkt.Packet.size;
      Enqueued
    end
  in
  (* Serve under the token: a flow keeps it until its quantum for the
     round is spent or its queue drains (classic DRR). One packet is
     emitted per [dequeue] call; the token persists across calls. *)
  let rec dequeue () =
    match !current with
    | Some (flow, deficit) -> (
      match Hashtbl.find_opt queues flow with
      | None ->
        current := None;
        dequeue ()
      | Some q -> (
        match Fifo.peek q with
        | None ->
          retire flow;
          current := None;
          dequeue ()
        | Some pkt when pkt.Packet.size <= deficit ->
          ignore (Fifo.pop q);
          decr total_len;
          total_bytes := !total_bytes - pkt.Packet.size;
          if Fifo.length q = 0 then begin
            (* Emptied within its round: state vanishes entirely. *)
            retire flow;
            current := None
          end
          else current := Some (flow, deficit - pkt.Packet.size);
          Some pkt
        | Some _ ->
          (* Quantum spent: bank the remainder, go to the ring tail. *)
          Hashtbl.replace banked flow deficit;
          Sim.Ring.push ring flow;
          current := None;
          dequeue ()))
    | None ->
      if Sim.Ring.is_empty ring then None
      else begin
        let flow = Sim.Ring.pop_exn ring in
        if Hashtbl.mem queues flow then begin
          let carried = Option.value ~default:0 (Hashtbl.find_opt banked flow) in
          current := Some (flow, carried + quantum flow);
          dequeue ()
        end
        else dequeue ()
      end
  in
  {
    enqueue;
    dequeue;
    length = (fun () -> !total_len);
    bytes = (fun () -> !total_bytes);
    kind = "drr";
  }

(* ------------------------------------------------------------------ *)
(* Invariant auditing *)

let with_invariants t =
  let nonneg after =
    Sim.Invariant.requiref
      ~what:(fun () ->
        Printf.sprintf "Qdisc(%s): negative occupancy (%d packets, %d bytes)"
          t.kind after (t.bytes ()))
      (after >= 0 && t.bytes () >= 0)
  in
  let enqueue pkt =
    let before = t.length () in
    let action = t.enqueue pkt in
    let after = t.length () in
    (match action with
    | Enqueued ->
      Sim.Invariant.require
        ~what:("Qdisc(" ^ t.kind ^ "): Enqueued must grow the queue by exactly one")
        (after = before + 1)
    | Dropped ->
      Sim.Invariant.require
        ~what:("Qdisc(" ^ t.kind ^ "): Dropped must leave the queue unchanged")
        (after = before));
    nonneg after;
    action
  in
  let dequeue () =
    let before = t.length () in
    let pkt = t.dequeue () in
    let after = t.length () in
    (match pkt with
    | Some _ ->
      Sim.Invariant.require
        ~what:("Qdisc(" ^ t.kind ^ "): dequeue must shrink the queue by exactly one")
        (after = before - 1)
    | None ->
      Sim.Invariant.require
        ~what:("Qdisc(" ^ t.kind ^ "): empty dequeue must leave the queue unchanged")
        (after = before));
    nonneg after;
    pkt
  in
  { t with enqueue; dequeue }

(* Trace wrapping composes under [with_invariants] (Link applies trace
   first, invariants on top), so the audited view includes the traced
   closures. The [want] guards make the wrapped closures cost two loads
   and a branch over the bare discipline while tracing is off — nothing
   is allocated either way, keeping the §7 hot-path budget intact. *)
let with_trace ~trace ~now ~link t =
  let enqueue pkt =
    let action = t.enqueue pkt in
    (match action with
    | Enqueued ->
      if Sim.Trace.want trace Sim.Trace.Enqueue then
        Sim.Trace.record trace ~time:(now ()) Sim.Trace.Enqueue
          ~a:link ~b:pkt.Packet.flow
          ~x:(float_of_int (t.length ()))
          ~y:0.
    | Dropped -> ());
    action
  in
  let dequeue () =
    let pkt = t.dequeue () in
    (match pkt with
    | Some p ->
      if Sim.Trace.want trace Sim.Trace.Dequeue then
        Sim.Trace.record trace ~time:(now ()) Sim.Trace.Dequeue
          ~a:link ~b:p.Packet.flow
          ~x:(float_of_int (t.length ()))
          ~y:0.
    | None -> ());
    pkt
  in
  { t with enqueue; dequeue }
