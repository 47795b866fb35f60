type verdict = Pass | Drop

type drop_reason = Filtered | Queue_full | Injected | Down

type fault_action = Forward | Lose | Strip

(* The time-weighted queue length, integrated with the arithmetic of
   [Sim.Stats.Time_weighted.set] at every queue change. All-float, so
   OCaml stores it flat and the per-change update is unboxed stores. *)
type queue_average = {
  mutable window_start : float;
  mutable last_change : float;
  mutable current : float;  (* the queue length since [last_change] *)
  mutable integral : float;  (* ∫ length dt over [window_start, last_change] *)
}

(* Hot-path layout: the packet being serialized sits in [in_service]
   (valid only while [busy]), with its size cached in [in_service_size]
   so tx-done never loads it; packets in flight sit in the wire, a ring
   kept inline as [wire]/[wire_head]/[wire_len] so no header block
   stands between the link and the array; and the two persistent
   closures [tx_done_ev]/[deliver_ev] are pushed with
   [Engine.schedule] — so a transmission costs zero heap
   allocations. Propagation delay is constant per
   link, so in-flight packets leave the wire in FIFO order and one ring
   suffices.

   One hop is flat: the admission hook is a closure field called
   directly, the discipline a variant matched directly, and the link
   itself records the Enqueue/Dequeue trace entries, runs the occupancy
   audit and integrates the queue average, reading the time through
   the engine's clock view rather than a boxed [Engine.now]. The
   fields [send] reads come first, then those of tx-done and delivery,
   so a hop touches the record's first cache lines only.

   Outages and router resets invalidate events already in the heap
   (a tx-done for a purged transmission, deliveries for a cleared
   wire). One-shot events cannot be cancelled, so the closures
   are generation-guarded: [purge] bumps [generation] and re-arms them,
   turning every stale event into a no-op while costing nothing on the
   per-packet path. *)
type t = {
  mutable arrivals : int;
  mutable up : bool;
  mutable fault : (Packet.t -> fault_action) option;
  mutable on_arrival : Packet.t -> verdict;
  qdisc : Qdisc.t;
  mutable busy : bool;
  qavg : queue_average;
  clock : Sim.Engine.clock;
  trace : Sim.Trace.t;
  check : bool;
  mutable in_service : Packet.t;
  mutable in_service_size : int;
  bandwidth : float;
  engine : Sim.Engine.t;
  mutable tx_done_ev : unit -> unit;
  mutable departures : int;
  mutable bytes_sent : int;
  mutable wire : Packet.t array;
  mutable wire_head : int;
  mutable wire_len : int;
  delay : float;
  mutable deliver_ev : unit -> unit;
  mutable generation : int;
  mutable deliver : Packet.t -> unit;
  mutable drops : int;
  mutable on_drop : (drop_reason -> Packet.t -> unit) option;
  id : int;
  name : string;
  src : int;
  dst : int;
}

(* Placeholder occupying every idle link's [in_service] (never read
   then: [busy] gates every access), and the discipline's "nothing
   served" answer. One for all links: it is never sent or mutated. *)
let idle = Packet.make ~id:(-1) ~flow:(-1) ~created:0. ()

let admit_all (_ : Packet.t) = Pass

let has_hook t = t.on_arrival != admit_all

let capacity_pps t = t.bandwidth /. float_of_int (8 * Packet.default_size)

let[@corelite.hot] queue_length t = Qdisc.length t.qdisc

let is_up t = t.up

let in_flight t = t.wire_len

(* Fold the span since the last change into the integral at the
   current value: [Time_weighted.set]'s [accumulate], term for term. *)
let[@corelite.hot] accumulate t =
  let a = t.qavg in
  let now = t.clock.Sim.Engine.time in
  a.integral <- a.integral +. ((now -. a.last_change) *. a.current);
  a.last_change <- now

(* The queue-average update, run after every enqueue, every served
   dequeue and every purge. *)
let[@corelite.hot] note_queue t =
  accumulate t;
  t.qavg.current <- float_of_int (queue_length t)

let queue_average t =
  accumulate t;
  let a = t.qavg in
  let span = a.last_change -. a.window_start in
  if span <= 0. then a.current else a.integral /. span

let reset_queue_average t =
  accumulate t;
  t.qavg.window_start <- t.qavg.last_change;
  t.qavg.integral <- 0.

let reason_code = function Filtered -> 0 | Queue_full -> 1 | Injected -> 2 | Down -> 3

let[@corelite.hot] drop t reason pkt =
  t.drops <- t.drops + 1;
  if Sim.Trace.want t.trace Sim.Trace.Drop then
    Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time Sim.Trace.Drop
      ~a:t.id ~b:pkt.Packet.flow
      ~x:(float_of_int (reason_code reason))
      ~y:0.;
  (match t.on_drop with Some f -> f reason pkt | None -> ());
  (* The last reader: hand a pooled packet back (see Packet). *)
  Packet.release pkt

(* Packet conservation: every arrival is accounted for exactly once —
   transmitted (delivered or on the wire), dropped, still queued, or in
   service right now. *)
let check_conservation t =
  let queued = queue_length t in
  let in_service = if t.busy then 1 else 0 in
  Sim.Invariant.requiref
    ~what:(fun () ->
      Printf.sprintf
        "Link %s: packet conservation broken (%d arrived <> %d departed + %d \
         dropped + %d queued + %d in service)"
        t.name t.arrivals t.departures t.drops queued in_service)
    (t.arrivals = t.departures + t.drops + queued + in_service)

(* Queue operations: the discipline's, then the Enqueue/Dequeue trace
   entry (link id, the packet's flow, the queue length after the
   operation), then, when [check] is on, the occupancy audit. A refused
   enqueue records nothing here: [drop] records the authoritative Drop
   with its reason. *)
let[@corelite.hot] enqueue t pkt =
  let before = if t.check then queue_length t else 0 in
  let action = Qdisc.enqueue t.qdisc pkt in
  (match action with
  | Qdisc.Enqueued ->
    if Sim.Trace.want t.trace Sim.Trace.Enqueue then
      Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time Sim.Trace.Enqueue
        ~a:t.id ~b:pkt.Packet.flow
        ~x:(float_of_int (queue_length t))
        ~y:0.
  | Qdisc.Dropped -> ());
  if t.check then
    Qdisc.audit_enqueue ~kind:(Qdisc.kind t.qdisc) action ~before ~after:(queue_length t)
      ~bytes:(Qdisc.bytes t.qdisc);
  action

(* Returns [idle] when the discipline serves nothing. *)
let[@corelite.hot] dequeue t =
  let before = if t.check then queue_length t else 0 in
  let pkt = Qdisc.dequeue t.qdisc ~empty:idle in
  let served = pkt != idle in
  if served && Sim.Trace.want t.trace Sim.Trace.Dequeue then
    Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time Sim.Trace.Dequeue
      ~a:t.id ~b:pkt.Packet.flow
      ~x:(float_of_int (queue_length t))
      ~y:0.;
  if t.check then
    Qdisc.audit_dequeue ~kind:(Qdisc.kind t.qdisc) ~served ~before ~after:(queue_length t)
      ~bytes:(Qdisc.bytes t.qdisc);
  pkt

(* The wire is a [Sim.Ring] kept inline: its growth step is the ring's
   own ([Sim.Ring.grown]). *)
let[@corelite.hot] wire_push t pkt =
  if t.wire_len = Array.length t.wire then begin
    t.wire <- Sim.Ring.grown t.wire ~head:t.wire_head ~len:t.wire_len pkt;
    t.wire_head <- 0
  end;
  let i = t.wire_head + t.wire_len in
  let capacity = Array.length t.wire in
  t.wire.(if i >= capacity then i - capacity else i) <- pkt;
  t.wire_len <- t.wire_len + 1

let[@corelite.hot] wire_pop t =
  if t.wire_len = 0 then invalid_arg "Link.wire_pop: empty";
  let pkt = t.wire.(t.wire_head) in
  let head = t.wire_head + 1 in
  t.wire_head <- (if head = Array.length t.wire then 0 else head);
  t.wire_len <- t.wire_len - 1;
  if t.wire_len = 0 then t.wire_head <- 0;
  pkt

let[@corelite.hot] rec start_transmission t =
  let pkt = dequeue t in
  if pkt == idle then t.busy <- false
  else begin
    t.busy <- true;
    t.in_service <- pkt;
    t.in_service_size <- pkt.Packet.size;
    note_queue t;
    let tx_time = float_of_int (8 * pkt.Packet.size) /. t.bandwidth in
    Sim.Engine.schedule t.engine ~delay:tx_time t.tx_done_ev
  end

and[@corelite.hot] tx_done t =
  t.departures <- t.departures + 1;
  t.bytes_sent <- t.bytes_sent + t.in_service_size;
  (* One delivery event per packet, scheduled now (at serialization
     end) exactly as the old per-packet closure was — keeping the
     event-heap seq assignment, and with it every FIFO tie-break among
     simultaneous events, byte-identical to the pre-ring behaviour. *)
  wire_push t t.in_service;
  Sim.Engine.schedule t.engine ~delay:t.delay t.deliver_ev;
  start_transmission t;
  if t.check then check_conservation t

let[@corelite.hot] deliver_head t = t.deliver (wire_pop t)

(* (Re-)install the generation-guarded event closures. Events pushed
   under an older generation find the guard false and die silently. *)
let arm t =
  let gen = t.generation in
  t.tx_done_ev <- (fun () -> if t.generation = gen then tx_done t);
  t.deliver_ev <- (fun () -> if t.generation = gen then deliver_head t)

(* Lose every packet this link currently holds — the in-service one,
   the queue, and everything in flight on the wire — counting each as a
   drop so conservation still balances, then invalidate the stale
   heap events. Shared by link-down and router-reset paths. *)
let purge t reason =
  if t.busy then begin
    t.busy <- false;
    drop t reason t.in_service
  end;
  let rec drain () =
    let pkt = dequeue t in
    if pkt != idle then begin
      drop t reason pkt;
      drain ()
    end
  in
  drain ();
  while t.wire_len > 0 do
    (* In-flight packets were counted as departures at tx-done; they
       never reach the far end, so reclassify them as drops to keep
       per-link conservation balanced. *)
    t.departures <- t.departures - 1;
    drop t reason (wire_pop t)
  done;
  (* Release the wire's storage too: a reset must not pin a previous
     epoch's packets alive. *)
  t.wire <- [||];
  t.generation <- t.generation + 1;
  arm t;
  note_queue t;
  if t.check then check_conservation t

let set_up t up =
  if up <> t.up then begin
    t.up <- up;
    if Sim.Trace.want t.trace Sim.Trace.Fault then
      Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time Sim.Trace.Fault
        ~a:t.id ~b:(-1)
        ~x:(if up then 3. else 2.)
        ~y:0.;
    if up then begin
      if not t.busy then start_transmission t
    end
    else purge t Down
  end

let reset t = purge t Down

let set_fault t f = t.fault <- f

let create ~engine ~id ~name ~src ~dst ~bandwidth ~delay ~qdisc () =
  if not (Float.is_finite bandwidth) then
    invalid_arg "Link.create: bandwidth must be finite";
  if bandwidth <= 0. then invalid_arg "Link.create: bandwidth must be positive";
  if not (Float.is_finite delay) then invalid_arg "Link.create: delay must be finite";
  if delay < 0. then invalid_arg "Link.create: negative delay";
  let clock = Sim.Engine.clock engine in
  let now = clock.Sim.Engine.time in
  let t =
    {
      arrivals = 0;
      up = true;
      fault = None;
      on_arrival = admit_all;
      qdisc;
      busy = false;
      qavg =
        {
          window_start = now;
          last_change = now;
          current = float_of_int (Qdisc.length qdisc);
          integral = 0.;
        };
      clock;
      trace = Sim.Engine.trace engine;
      check = Sim.Invariant.default ();
      in_service = idle;
      in_service_size = 0;
      bandwidth;
      engine;
      tx_done_ev = ignore;
      departures = 0;
      bytes_sent = 0;
      wire = [||];
      wire_head = 0;
      wire_len = 0;
      delay;
      deliver_ev = ignore;
      generation = 0;
      deliver = (fun _ -> failwith ("Link " ^ name ^ ": deliver not wired"));
      drops = 0;
      on_drop = None;
      id;
      name;
      src;
      dst;
    }
  in
  arm t;
  (* Pull probes: sampled only when the registry exports, so they add
     nothing to the per-packet path. [Metrics.probe] drops them while
     auto-probes are off (the default), so build no name or closure for
     them then. *)
  let m = Sim.Engine.metrics engine in
  if Sim.Metrics.auto_probes m then begin
    let pfx = "link." ^ name ^ "." in
    Sim.Metrics.probe m (pfx ^ "arrivals")
      ~help:"packets that arrived, including those later dropped"
      (fun () -> float_of_int t.arrivals);
    Sim.Metrics.probe m (pfx ^ "departures")
      ~help:"packets fully serialized onto the wire"
      (fun () -> float_of_int t.departures);
    Sim.Metrics.probe m (pfx ^ "drops")
      ~help:"packets lost: filtered, queue-full, injected, or down"
      (fun () -> float_of_int t.drops);
    Sim.Metrics.probe m (pfx ^ "bytes_sent")
      ~help:"payload bytes serialized"
      (fun () -> float_of_int t.bytes_sent);
    Sim.Metrics.probe m (pfx ^ "queue")
      ~help:"packets waiting right now, excluding the one in service"
      (fun () -> float_of_int (queue_length t))
  end;
  t

let[@corelite.hot] send t pkt =
  t.arrivals <- t.arrivals + 1;
  (if not t.up then drop t Down pkt
   else
     let admitted =
       (* Fault injection runs before the router's admission hook: a
          packet lost (or a marker corrupted) on the upstream wire is
          never observed by the core logic attached to this link. *)
       match t.fault with
       | None -> true
       | Some f -> (
         match f pkt with
         | Forward -> true
         | Strip ->
           Packet.clear_marker pkt;
           if Sim.Trace.want t.trace Sim.Trace.Fault then
             Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time
               Sim.Trace.Fault ~a:t.id ~b:pkt.Packet.flow ~x:1. ~y:0.;
           true
         | Lose ->
           drop t Injected pkt;
           false)
     in
     if admitted then
       (* The direct arrival call: the core's closure, or [admit_all]. *)
       match t.on_arrival pkt with
       | Drop -> drop t Filtered pkt
       | Pass -> (
         match enqueue t pkt with
         | Qdisc.Dropped -> drop t Queue_full pkt
         | Qdisc.Enqueued ->
           note_queue t;
           if not t.busy then start_transmission t));
  if t.check then check_conservation t
