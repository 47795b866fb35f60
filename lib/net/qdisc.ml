type action = Enqueued | Dropped

(* A plain FIFO buffer shared by the multi-queue disciplines — a
   growable ring ([Sim.Ring]) rather than [Stdlib.Queue], so
   steady-state enqueues allocate nothing (a Queue cell per push is
   pure minor-GC pressure on the per-packet path; lint rule L6 enforces
   the choice). Droptail, the evaluation's discipline, keeps its ring
   inline in its constructor instead (see [t] below). *)
module Fifo = struct
  type nonrec t = { q : Packet.t Sim.Ring.t; mutable bytes : int }

  let create () = { q = Sim.Ring.create (); bytes = 0 }

  let[@corelite.hot] push t pkt =
    Sim.Ring.push t.q pkt;
    t.bytes <- t.bytes + pkt.Packet.size

  (* The option result is the one allocation this API keeps: RED, FRED,
     DRR and classful need the atomic empty-test-and-pop. Droptail, the
     discipline every benchmark workload runs, does not go through it:
     its dequeue in [dequeue] below pops its ring directly. *)
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

(* Shared RED average-queue machinery; [Fred] reuses it with its own
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

module Red = struct
  type t = {
    fifo : Fifo.t;
    state : Red_state.t;
    rng : Sim.Rng.t;
    now : unit -> float;
  }

  let enqueue t pkt =
    Red_state.update_avg t.state ~now:(t.now ()) ~qlen:(Fifo.length t.fifo);
    if Fifo.length t.fifo >= t.state.Red_state.p.capacity then Dropped
    else if Red_state.early_drop t.state t.rng then Dropped
    else begin
      Fifo.push t.fifo pkt;
      Enqueued
    end

  let dequeue t =
    let pkt = Fifo.pop t.fifo in
    if Fifo.length t.fifo = 0 then Red_state.note_idle t.state ~now:(t.now ());
    pkt
end

module Fred = struct
  (* Per-flow state exists only while the flow has packets buffered. *)
  type t = {
    fifo : Fifo.t;
    state : Red_state.t;
    rng : Sim.Rng.t;
    now : unit -> float;
    minq : int;
    qlen : (int, int) Hashtbl.t;
    strikes : (int, int) Hashtbl.t;
  }

  let flow_qlen t f = Option.value ~default:0 (Hashtbl.find_opt t.qlen f)

  let flow_strikes t f = Option.value ~default:0 (Hashtbl.find_opt t.strikes f)

  let enqueue t pkt =
    let params = t.state.Red_state.p in
    let avg = t.state.Red_state.avg in
    let flow = pkt.Packet.flow in
    Red_state.update_avg t.state ~now:(t.now ()) ~qlen:(Fifo.length t.fifo);
    let active = Hashtbl.length t.qlen in
    let avgcq = if active = 0 then avg.Red_state.v else avg.Red_state.v /. float_of_int active in
    let avgcq = Float.max avgcq 1. in
    let fq = float_of_int (flow_qlen t flow) in
    let maxq =
      if avg.Red_state.v >= params.max_thresh then Float.max (float_of_int t.minq) avgcq
      else params.max_thresh
    in
    if Fifo.length t.fifo >= params.capacity then Dropped
    else if fq >= maxq || (flow_strikes t flow > 1 && fq >= 2. *. avgcq) then begin
      Hashtbl.replace t.strikes flow (flow_strikes t flow + 1);
      Dropped
    end
    else if fq >= Float.max (float_of_int t.minq) avgcq && Red_state.early_drop t.state t.rng
    then Dropped
    else begin
      Fifo.push t.fifo pkt;
      Hashtbl.replace t.qlen flow (flow_qlen t flow + 1);
      Enqueued
    end

  let dequeue t =
    match Fifo.pop t.fifo with
    | None -> None
    | Some pkt ->
      let flow = pkt.Packet.flow in
      let n = flow_qlen t flow - 1 in
      if n <= 0 then begin
        Hashtbl.remove t.qlen flow;
        Hashtbl.remove t.strikes flow
      end
      else Hashtbl.replace t.qlen flow n;
      if Fifo.length t.fifo = 0 then Red_state.note_idle t.state ~now:(t.now ());
      Some pkt
end

type scheduler = Priority | Weighted_round_robin of int array

module Classful = struct
  type t = {
    classify : Packet.t -> int;
    scheduler : scheduler;
    capacity : int;
    queues : Fifo.t array;
    (* WRR state: the class currently holding the token and its
       remaining quantum. *)
    mutable current : int;
    mutable remaining : int;
  }

  let enqueue t pkt =
    let classes = Array.length t.queues in
    let cls = t.classify pkt in
    if cls < 0 || cls >= classes then invalid_arg "Qdisc.classful: classify out of range";
    if Fifo.length t.queues.(cls) >= t.capacity then Dropped
    else begin
      Fifo.push t.queues.(cls) pkt;
      Enqueued
    end

  let dequeue_priority t =
    let rec scan cls =
      if cls >= Array.length t.queues then None
      else
        match Fifo.pop t.queues.(cls) with
        | Some pkt -> Some pkt
        | None -> scan (cls + 1)
    in
    scan 0

  (* Move the token when the current class is empty or its quantum is
     spent. After [classes] moves the token is back where it started
     with a fresh quantum, so every class has been offered service:
     nothing is served only when every class is empty. *)
  let dequeue_wrr t quanta =
    let classes = Array.length t.queues in
    let rec scan moves =
      if moves > classes then None
      else if Fifo.length t.queues.(t.current) = 0 || t.remaining <= 0 then begin
        t.current <- (t.current + 1) mod classes;
        t.remaining <- quanta.(t.current);
        scan (moves + 1)
      end
      else begin
        t.remaining <- t.remaining - 1;
        Fifo.pop t.queues.(t.current)
      end
    in
    scan 0

  let dequeue t =
    match t.scheduler with
    | Priority -> dequeue_priority t
    | Weighted_round_robin quanta -> dequeue_wrr t quanta

  let total f t = Array.fold_left (fun acc q -> acc + f q) 0 t.queues
end

module Drr = struct
  (* Per-flow state (that is the point of this comparator): queue,
     banked deficit, and membership in the active round-robin ring. *)
  type t = {
    weight : int -> float;
    quantum_unit : int;
    capacity : int;
    queues : (int, Fifo.t) Hashtbl.t;
    banked : (int, int) Hashtbl.t;
    ring : int Sim.Ring.t;
    (* The flow currently holding the service token and its remaining
       deficit for this round. *)
    mutable current : (int * int) option;
    mutable total_len : int;
    mutable total_bytes : int;
  }

  let quantum t flow =
    let w = t.weight flow in
    if not (Float.is_finite w) || w <= 0. then
      invalid_arg
        (Printf.sprintf "Qdisc.drr: weight of flow %d must be finite and positive (got %h)"
           flow w);
    Stdlib.max 1 (int_of_float (w *. float_of_int t.quantum_unit))

  let retire t flow =
    Hashtbl.remove t.queues flow;
    Hashtbl.remove t.banked flow

  let enqueue t pkt =
    let flow = pkt.Packet.flow in
    let q =
      match Hashtbl.find_opt t.queues flow with
      | Some q -> q
      | None ->
        let q = Fifo.create () in
        Hashtbl.add t.queues flow q;
        q
    in
    if Fifo.length q >= t.capacity then Dropped
    else begin
      (* Newly backlogged: join the ring. An empty queue can never hold
         the service token (it is retired on drain), so no clash. *)
      if Fifo.length q = 0 then begin
        Sim.Ring.push t.ring flow;
        Hashtbl.replace t.banked flow 0
      end;
      Fifo.push q pkt;
      t.total_len <- t.total_len + 1;
      t.total_bytes <- t.total_bytes + pkt.Packet.size;
      Enqueued
    end

  (* Serve under the token: a flow keeps it until its quantum for the
     round is spent or its queue drains (classic DRR). One packet is
     emitted per [dequeue] call; the token persists across calls. *)
  let rec dequeue t =
    match t.current with
    | Some (flow, deficit) -> (
      match Hashtbl.find_opt t.queues flow with
      | None ->
        t.current <- None;
        dequeue t
      | Some q -> (
        match Fifo.peek q with
        | None ->
          retire t flow;
          t.current <- None;
          dequeue t
        | Some pkt when pkt.Packet.size <= deficit ->
          ignore (Fifo.pop q);
          t.total_len <- t.total_len - 1;
          t.total_bytes <- t.total_bytes - pkt.Packet.size;
          if Fifo.length q = 0 then begin
            (* Emptied within its round: state vanishes entirely. *)
            retire t flow;
            t.current <- None
          end
          else t.current <- Some (flow, deficit - pkt.Packet.size);
          Some pkt
        | Some _ ->
          (* Quantum spent: bank the remainder, go to the ring tail. *)
          Hashtbl.replace t.banked flow deficit;
          Sim.Ring.push t.ring flow;
          t.current <- None;
          dequeue t))
    | None ->
      if Sim.Ring.is_empty t.ring then None
      else begin
        let flow = Sim.Ring.pop_exn t.ring in
        if Hashtbl.mem t.queues flow then begin
          let carried = Option.value ~default:0 (Hashtbl.find_opt t.banked flow) in
          t.current <- Some (flow, carried + quantum t flow);
          dequeue t
        end
        else dequeue t
      end
end

(* A closed variant: the link dispatches with one [match] and reaches
   droptail's buffer through a single block — no record of closures,
   no wrapper layers. Droptail keeps a fixed ring of [capacity] slots
   inline in its constructor (head, length and byte count beside it):
   it admits at most [capacity], so the ring never grows. *)
type t =
  | Droptail of {
      slots : Packet.t array;
      mutable head : int;
      mutable len : int;
      mutable bytes : int;
    }
  | Red of Red.t
  | Fred of Fred.t
  | Drr of Drr.t
  | Classful of Classful.t

(* What fills droptail's free slots: one packet for every queue, since
   a fresh one per queue made building a network measurably slower. It
   is never enqueued, served or mutated. *)
let vacant = Packet.make ~id:(-1) ~flow:(-1) ~created:0. ()

let droptail ~capacity =
  if capacity <= 0 then invalid_arg "Qdisc.droptail: capacity must be positive";
  Droptail { slots = Array.make capacity vacant; head = 0; len = 0; bytes = 0 }

let red ?(params = default_red_params) ~rng ~now () =
  Red { Red.fifo = Fifo.create (); state = Red_state.create params; rng; now }

let fred ?(params = default_red_params) ?(minq = 2) ~rng ~now () =
  Fred
    {
      Fred.fifo = Fifo.create ();
      state = Red_state.create params;
      rng;
      now;
      minq;
      qlen = Hashtbl.create 16;
      strikes = Hashtbl.create 16;
    }

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
  Classful
    {
      Classful.classify;
      scheduler;
      capacity;
      queues = Array.init classes (fun _ -> Fifo.create ());
      current = 0;
      remaining = (match scheduler with Weighted_round_robin q -> q.(0) | Priority -> 0);
    }

let drr ~weight ?(quantum_unit = Packet.default_size) ~capacity () =
  if capacity <= 0 then invalid_arg "Qdisc.drr: capacity must be positive";
  if quantum_unit <= 0 then invalid_arg "Qdisc.drr: quantum must be positive";
  Drr
    {
      Drr.weight;
      quantum_unit;
      capacity;
      queues = Hashtbl.create 16;
      banked = Hashtbl.create 16;
      ring = Sim.Ring.create ();
      current = None;
      total_len = 0;
      total_bytes = 0;
    }

let[@corelite.hot] enqueue t pkt =
  match t with
  | Droptail d ->
    let capacity = Array.length d.slots in
    if d.len >= capacity then Dropped
    else begin
      let i = d.head + d.len in
      d.slots.(if i >= capacity then i - capacity else i) <- pkt;
      d.len <- d.len + 1;
      d.bytes <- d.bytes + pkt.Packet.size;
      Enqueued
    end
  | Red r -> Red.enqueue r pkt
  | Fred f -> Fred.enqueue f pkt
  | Drr d -> Drr.enqueue d pkt
  | Classful c -> Classful.enqueue c pkt

let[@corelite.hot] or_empty served ~empty =
  match served with Some pkt -> pkt | None -> empty

(* Droptail pops its ring directly, so the link's dequeue allocates
   nothing; the other disciplines answer through their option dequeue,
   whose [Some] dies in the minor heap right here. *)
let[@corelite.hot] dequeue t ~empty =
  match t with
  | Droptail d ->
    if d.len = 0 then empty
    else begin
      let pkt = d.slots.(d.head) in
      let head = d.head + 1 in
      d.head <- (if head = Array.length d.slots then 0 else head);
      d.len <- d.len - 1;
      d.bytes <- d.bytes - pkt.Packet.size;
      pkt
    end
  | Red r -> or_empty (Red.dequeue r) ~empty
  | Fred f -> or_empty (Fred.dequeue f) ~empty
  | Drr d -> or_empty (Drr.dequeue d) ~empty
  | Classful c -> or_empty (Classful.dequeue c) ~empty

let[@corelite.hot] length t =
  match t with
  | Droptail d -> d.len
  | Red r -> Fifo.length r.Red.fifo
  | Fred f -> Fifo.length f.Fred.fifo
  | Drr d -> d.Drr.total_len
  | Classful c -> Classful.total Fifo.length c

let bytes t =
  match t with
  | Droptail d -> d.bytes
  | Red r -> Fifo.bytes r.Red.fifo
  | Fred f -> Fifo.bytes f.Fred.fifo
  | Drr d -> d.Drr.total_bytes
  | Classful c -> Classful.total Fifo.bytes c

let kind = function
  | Droptail _ -> "droptail"
  | Red _ -> "red"
  | Fred _ -> "fred"
  | Drr _ -> "drr"
  | Classful _ -> "classful"

(* ------------------------------------------------------------------ *)
(* Occupancy audit *)

let nonneg ~kind ~after ~bytes =
  Sim.Invariant.requiref
    ~what:(fun () ->
      Printf.sprintf "Qdisc(%s): negative occupancy (%d packets, %d bytes)" kind after bytes)
    (after >= 0 && bytes >= 0)

let audit_enqueue ~kind action ~before ~after ~bytes =
  (match action with
  | Enqueued ->
    Sim.Invariant.require
      ~what:("Qdisc(" ^ kind ^ "): Enqueued must grow the queue by exactly one")
      (after = before + 1)
  | Dropped ->
    Sim.Invariant.require
      ~what:("Qdisc(" ^ kind ^ "): Dropped must leave the queue unchanged")
      (after = before));
  nonneg ~kind ~after ~bytes

let audit_dequeue ~kind ~served ~before ~after ~bytes =
  if served then
    Sim.Invariant.require
      ~what:("Qdisc(" ^ kind ^ "): dequeue must shrink the queue by exactly one")
      (after = before - 1)
  else
    Sim.Invariant.require
      ~what:("Qdisc(" ^ kind ^ "): empty dequeue must leave the queue unchanged")
      (after = before);
  nonneg ~kind ~after ~bytes
