(** Unidirectional store-and-forward link.

    A link serializes packets at [bandwidth] bits/s out of its queue
    discipline, then delays each packet by [delay] seconds of propagation
    before handing it to the downstream node. An admission hook
    ({!field-on_arrival}) lets per-link router logic (Corelite core,
    CSFQ core) observe arrivals and veto admission, and the link keeps
    the time-weighted average of its own queue length for the Corelite
    core's congestion epochs ({!queue_average}).

    The per-hop datapath is flat: the hook is a closure field called
    directly, the discipline a closed variant ({!Qdisc.t}) matched
    directly, and the link itself records the [Enqueue]/[Dequeue] trace
    entries, audits occupancy when its checks are on, and reads the
    time through the engine's unboxed clock view
    ({!Sim.Engine.clock}).

    Links also carry the failure surface the chaos experiments inject
    through: an up/down state ({!set_up}), a buffer purge for router
    resets ({!reset}), and a pre-admission fault hook ({!set_fault})
    that only [Net.Fault] may drive with random draws (lint rule L7). *)

type verdict = Pass | Drop

(** Why a packet was lost: rejected by the admission hook (e.g. a CSFQ
    probabilistic drop), refused by the queue discipline (buffer
    overflow or an early AQM drop), destroyed by fault injection
    ([Injected]), or lost to a link outage / router reset ([Down] —
    covers both packets arriving while the link is down and packets
    purged from the buffer and wire when it goes down). *)
type drop_reason = Filtered | Queue_full | Injected | Down

(** Verdict of the fault hook, evaluated before the admission hook:
    [Forward] passes the packet untouched, [Lose] drops it
    ([Injected]), [Strip] removes its piggybacked marker but forwards
    the payload — pure control-plane loss. *)
type fault_action = Forward | Lose | Strip

(** The link's time-weighted queue length (read with
    {!queue_average}). *)
type queue_average

(** The fields the per-packet path reads come first, in the order
    {!send} reads them, then those of tx-done and delivery; the rest
    are read at set-up, on drops or by observers. *)
type t = {
  mutable arrivals : int;
  mutable up : bool;  (** read via {!is_up}; write via {!set_up} *)
  mutable fault : (Packet.t -> fault_action) option;
      (** pre-admission fault hook; set via {!set_fault} *)
  mutable on_arrival : Packet.t -> verdict;
      (** The admission hook, called directly on every packet that
          survives the fault hook and before the queue discipline; may
          mutate the packet (CSFQ relabelling) or reject it
          ([Filtered]). {!admit_all} while no core logic is attached. *)
  qdisc : Qdisc.t;
  mutable busy : bool;
  qavg : queue_average;
      (** integrated at every enqueue, served dequeue and purge *)
  clock : Sim.Engine.clock;
      (** the engine's clock view, read unboxed on the per-hop path *)
  trace : Sim.Trace.t;
      (** the engine's tracer, cached so recording sites need no
          indirection *)
  check : bool;  (** audit packet conservation on every send/tx-done *)
  mutable in_service : Packet.t;
      (** the packet being serialized; a shared placeholder packet (id
          [-1]) until the first transmission, and never read while not
          [busy] *)
  mutable in_service_size : int;
      (** [in_service]'s size, cached so tx-done does not load the
          packet *)
  bandwidth : float;  (** bits/s *)
  engine : Sim.Engine.t;
  mutable tx_done_ev : unit -> unit;
  mutable departures : int;
  mutable bytes_sent : int;
  mutable wire : Packet.t array;
  mutable wire_head : int;
  mutable wire_len : int;
      (** packets in flight: a ring inline in the link, [wire_len]
          packets from slot [wire_head] of [wire], wrapping at its end
          (read through {!in_flight}). Constant propagation delay keeps
          them FIFO, so one ring per link suffices. *)
  delay : float;  (** propagation, seconds *)
  mutable deliver_ev : unit -> unit;
      (** with [tx_done_ev], the two persistent event closures reused
          for every packet — scheduled via {!Sim.Engine.schedule},
          so transmitting and delivering allocate nothing per packet.
          Generation-guarded: {!set_up}/{!reset} re-arm them so events
          already in the heap for purged packets die as no-ops. *)
  mutable generation : int;
      (** bumped by every purge; stale heap events check it *)
  mutable deliver : Packet.t -> unit;  (** set when the topology is wired *)
  mutable drops : int;
  mutable on_drop : (drop_reason -> Packet.t -> unit) option;
      (** Fires for every packet lost on this link, whatever the
          {!drop_reason}. The link then releases the packet to its pool
          ({!Packet.release}), so the callback must not keep it. *)
  id : int;
  name : string;
  src : int;  (** upstream node id *)
  dst : int;  (** downstream node id *)
}

(** The admission hook of a link with no core logic: passes every
    packet. *)
val admit_all : Packet.t -> verdict

(** Whether core logic has replaced {!admit_all}: a core attaches only
    to a link without a hook. *)
val has_hook : t -> bool

(** When {!Sim.Invariant.default} is on at creation, the link runs the
    discipline's occupancy audit ({!Qdisc.audit_enqueue},
    {!Qdisc.audit_dequeue}) around every enqueue and dequeue and audits
    per-link packet conservation — arrivals = departures + drops +
    queued + in-service — at every stable point, raising
    {!Sim.Invariant.Violation} on the first broken account.

    @raise Invalid_argument when [bandwidth] is not finite and
    positive, or [delay] not finite and non-negative (NaN included). *)
val create :
  engine:Sim.Engine.t ->
  id:int ->
  name:string ->
  src:int ->
  dst:int ->
  bandwidth:float ->
  delay:float ->
  qdisc:Qdisc.t ->
  unit ->
  t

(** Submit a packet for transmission. Runs the fault hook, then the
    admission hook, enqueues (or drops), and starts the transmitter if
    idle. While the link is down every packet is dropped with [Down]. *)
val send : t -> Packet.t -> unit

(** Time-weighted average of {!queue_length} over the current window,
    up to now: the integral the link accumulates at every queue change
    (with {!Sim.Stats.Time_weighted}'s arithmetic, term for term)
    divided by the window's span, or the current length when the
    window is empty. The window starts at link creation and at every
    {!reset_queue_average}. *)
val queue_average : t -> float

(** Start a new averaging window now; the current length carries
    over. *)
val reset_queue_average : t -> unit

(** Service rate in packets/s for [Packet.default_size] packets. *)
val capacity_pps : t -> float

(** Packets currently waiting (excluding the one being serialized). *)
val queue_length : t -> int

val is_up : t -> bool

(** Packets on the wire: serialized, not yet delivered. *)
val in_flight : t -> int

(** [set_up t false] takes the link down: the queue, the packet in
    service and everything in flight on the wire are lost (each counted
    as a [Down] drop, so packet conservation still balances) and
    subsequent sends drop until [set_up t true]. Idempotent. *)
val set_up : t -> bool -> unit

(** Router-reset buffer purge: lose the queue, the in-service packet
    and the wire exactly as an outage does ([Down] drops), but leave
    the link up. Models the downstream router rebooting and losing its
    RAM while the fibre stays lit. *)
val reset : t -> unit

(** Install or clear the fault hook. Only [Net.Fault] may install hooks
    that make random draws (lint rule L7 keeps ad-hoc loss draws out of
    the data path). *)
val set_fault : t -> (Packet.t -> fault_action) option -> unit
