type verdict = Pass | Drop

type drop_reason = Filtered | Queue_full | Injected | Down

type fault_action = Forward | Lose | Strip

type hooks = {
  on_arrival : Packet.t -> verdict;
  on_queue_change : int -> unit;
}

(* Hot-path layout: the packet being serialized sits in [in_service]
   (valid only while [busy]), packets in flight sit in the [wire] ring,
   and the two persistent closures [tx_done_ev]/[deliver_ev] are pushed
   with [Engine.schedule_unit] — so a transmission costs zero heap
   allocations where it used to cost two fresh closures plus two
   cancellation handles per packet. Propagation delay is constant per
   link, so in-flight packets leave the wire in FIFO order and one ring
   suffices.

   Outages and router resets invalidate events already in the heap
   (a tx-done for a purged transmission, deliveries for a cleared
   wire). [schedule_unit] events cannot be cancelled, so the closures
   are generation-guarded: [purge] bumps [generation] and re-arms them,
   turning every stale event into a no-op while costing nothing on the
   per-packet path. *)
type t = {
  id : int;
  name : string;
  src : int;
  dst : int;
  bandwidth : float;
  delay : float;
  qdisc : Qdisc.t;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  mutable busy : bool;
  mutable in_service : Packet.t;
  wire : Packet.t Sim.Ring.t;
  mutable tx_done_ev : unit -> unit;
  mutable deliver_ev : unit -> unit;
  mutable up : bool;
  mutable generation : int;
  mutable fault : (Packet.t -> fault_action) option;
  mutable hooks : hooks option;
  mutable on_drop : (drop_reason -> Packet.t -> unit) option;
  mutable deliver : Packet.t -> unit;
  mutable arrivals : int;
  mutable departures : int;
  mutable drops : int;
  mutable bytes_sent : int;
  check : bool;
}

let capacity_pps t = t.bandwidth /. float_of_int (8 * Packet.default_size)

let[@corelite.hot] queue_length t = t.qdisc.Qdisc.length ()

let is_up t = t.up

let[@corelite.hot] notify_queue_change t =
  match t.hooks with
  | Some h -> h.on_queue_change (queue_length t)
  | None -> ()

let reason_code = function Filtered -> 0 | Queue_full -> 1 | Injected -> 2 | Down -> 3

let[@corelite.hot] drop t reason pkt =
  t.drops <- t.drops + 1;
  if Sim.Trace.want t.trace Sim.Trace.Drop then
    Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) Sim.Trace.Drop
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

let[@corelite.hot] rec start_transmission t =
  match t.qdisc.Qdisc.dequeue () with
  | None -> t.busy <- false
  | Some pkt ->
    t.busy <- true;
    t.in_service <- pkt;
    notify_queue_change t;
    let tx_time = float_of_int (8 * pkt.Packet.size) /. t.bandwidth in
    Sim.Engine.schedule_unit t.engine ~delay:tx_time t.tx_done_ev

and[@corelite.hot] tx_done t =
  let pkt = t.in_service in
  t.departures <- t.departures + 1;
  t.bytes_sent <- t.bytes_sent + pkt.Packet.size;
  (* One delivery event per packet, scheduled now (at serialization
     end) exactly as the old per-packet closure was — keeping the
     event-heap seq assignment, and with it every FIFO tie-break among
     simultaneous events, byte-identical to the pre-ring behaviour. *)
  Sim.Ring.push t.wire pkt;
  Sim.Engine.schedule_unit t.engine ~delay:t.delay t.deliver_ev;
  start_transmission t;
  if t.check then check_conservation t

let[@corelite.hot] deliver_head t = t.deliver (Sim.Ring.pop_exn t.wire)

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
    match t.qdisc.Qdisc.dequeue () with
    | Some pkt ->
      drop t reason pkt;
      drain ()
    | None -> ()
  in
  drain ();
  while not (Sim.Ring.is_empty t.wire) do
    (* In-flight packets were counted as departures at tx-done; they
       never reach the far end, so reclassify them as drops to keep
       per-link conservation balanced. *)
    t.departures <- t.departures - 1;
    drop t reason (Sim.Ring.pop_exn t.wire)
  done;
  (* Release the ring's storage too: a reset must not pin a previous
     epoch's packets alive (see Sim.Ring.clear). *)
  Sim.Ring.clear t.wire;
  t.generation <- t.generation + 1;
  arm t;
  notify_queue_change t;
  if t.check then check_conservation t

let set_up t up =
  if up <> t.up then begin
    t.up <- up;
    if Sim.Trace.want t.trace Sim.Trace.Fault then
      Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine) Sim.Trace.Fault
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

let create ?check_invariants ~engine ~id ~name ~src ~dst ~bandwidth ~delay ~qdisc () =
  if not (Float.is_finite bandwidth) then
    invalid_arg "Link.create: bandwidth must be finite";
  if bandwidth <= 0. then invalid_arg "Link.create: bandwidth must be positive";
  if not (Float.is_finite delay) then invalid_arg "Link.create: delay must be finite";
  if delay < 0. then invalid_arg "Link.create: negative delay";
  let check =
    match check_invariants with Some b -> b | None -> Sim.Invariant.default ()
  in
  let trace = Sim.Engine.trace engine in
  (* Trace first, invariants on top: the audit then covers the traced
     closures, and both wrappers are allocated once per link. *)
  let qdisc =
    Qdisc.with_trace ~trace ~now:(fun () -> Sim.Engine.now engine) ~link:id qdisc
  in
  let qdisc = if check then Qdisc.with_invariants qdisc else qdisc in
  let t =
    {
      id;
      name;
      src;
      dst;
      bandwidth;
      delay;
      qdisc;
      engine;
      trace;
      busy = false;
      (* Placeholder occupying [in_service] while idle; never read
         ([busy] gates every access). *)
      in_service = Packet.make ~id:(-1) ~flow:(-1) ~created:0. ();
      wire = Sim.Ring.create ();
      tx_done_ev = ignore;
      deliver_ev = ignore;
      up = true;
      generation = 0;
      fault = None;
      hooks = None;
      on_drop = None;
      deliver = (fun _ -> failwith ("Link " ^ name ^ ": deliver not wired"));
      arrivals = 0;
      departures = 0;
      drops = 0;
      bytes_sent = 0;
      check;
    }
  in
  arm t;
  (* Pull probes: sampled only when the registry exports, so they add
     nothing to the per-packet path. *)
  let m = Sim.Engine.metrics engine in
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
    (fun () -> float_of_int (queue_length t));
  t

let[@corelite.hot] send t pkt =
  t.arrivals <- t.arrivals + 1;
  (if not t.up then drop t Down pkt
   else
     let admitted =
       (* Fault injection runs before the router's admission hooks:
          a packet lost (or a marker corrupted) on the upstream wire is
          never observed by the core logic attached to this link. *)
       match t.fault with
       | None -> true
       | Some f -> (
         match f pkt with
         | Forward -> true
         | Strip ->
           Packet.clear_marker pkt;
           if Sim.Trace.want t.trace Sim.Trace.Fault then
             Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine)
               Sim.Trace.Fault ~a:t.id ~b:pkt.Packet.flow ~x:1. ~y:0.;
           true
         | Lose ->
           drop t Injected pkt;
           false)
     in
     if admitted then
       (* A plain match: the [|> function] spelling builds a function
          value per packet just to apply it once. *)
       match (match t.hooks with Some h -> h.on_arrival pkt | None -> Pass) with
       | Drop -> drop t Filtered pkt
       | Pass -> (
         match t.qdisc.Qdisc.enqueue pkt with
         | Qdisc.Dropped -> drop t Queue_full pkt
         | Qdisc.Enqueued ->
           notify_queue_change t;
           if not t.busy then start_transmission t));
  if t.check then check_conservation t
