(** Unidirectional store-and-forward link.

    A link serializes packets at [bandwidth] bits/s out of its queue
    discipline, then delays each packet by [delay] seconds of propagation
    before handing it to the downstream node. Hooks let per-link router
    logic (Corelite core, CSFQ core) observe arrivals and queue changes
    and veto admission.

    Links also carry the failure surface the chaos experiments inject
    through: an up/down state ({!set_up}), a buffer purge for router
    resets ({!reset}), and a pre-admission fault hook ({!set_fault})
    that only [Net.Fault] may drive with random draws (lint rule L7). *)

type verdict = Pass | Drop

(** Why a packet was lost: rejected by the admission hooks (e.g. a CSFQ
    probabilistic drop), refused by the queue discipline (buffer
    overflow or an early AQM drop), destroyed by fault injection
    ([Injected]), or lost to a link outage / router reset ([Down] —
    covers both packets arriving while the link is down and packets
    purged from the buffer and wire when it goes down). *)
type drop_reason = Filtered | Queue_full | Injected | Down

(** Verdict of the fault hook, evaluated before the admission hooks:
    [Forward] passes the packet untouched, [Lose] drops it
    ([Injected]), [Strip] removes its piggybacked marker but forwards
    the payload — pure control-plane loss. *)
type fault_action = Forward | Lose | Strip

type hooks = {
  on_arrival : Packet.t -> verdict;
      (** Runs before the queue discipline; may mutate the packet
          (e.g. CSFQ relabelling) or reject it. *)
  on_queue_change : int -> unit;
      (** Called with the new number of waiting packets after every
          enqueue or dequeue. *)
}

type t = {
  id : int;
  name : string;
  src : int;  (** upstream node id *)
  dst : int;  (** downstream node id *)
  bandwidth : float;  (** bits/s *)
  delay : float;  (** propagation, seconds *)
  qdisc : Qdisc.t;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
      (** the engine's tracer, cached so drop/fault recording sites
          need no indirection *)
  mutable busy : bool;
  mutable in_service : Packet.t;
      (** the packet being serialized; a placeholder (id [-1]) while
          not [busy] — never read then *)
  wire : Packet.t Sim.Ring.t;
      (** packets in flight; constant propagation delay keeps them
          FIFO, so one ring per link suffices *)
  mutable tx_done_ev : unit -> unit;
  mutable deliver_ev : unit -> unit;
      (** the two persistent event closures reused for every packet —
          scheduled via {!Sim.Engine.schedule_unit}, so transmitting
          and delivering allocate nothing per packet. Generation-
          guarded: {!set_up}/{!reset} re-arm them so events already in
          the heap for purged packets die as no-ops. *)
  mutable up : bool;  (** read via {!is_up}; write via {!set_up} *)
  mutable generation : int;
      (** bumped by every purge; stale heap events check it *)
  mutable fault : (Packet.t -> fault_action) option;
      (** pre-admission fault hook; set via {!set_fault} *)
  mutable hooks : hooks option;
  mutable on_drop : (drop_reason -> Packet.t -> unit) option;
      (** Fires for every packet lost on this link, whatever the
          {!drop_reason}. The link then releases the packet to its pool
          ({!Packet.release}), so the callback must not keep it. *)
  mutable deliver : Packet.t -> unit;  (** set when the topology is wired *)
  mutable arrivals : int;
  mutable departures : int;
  mutable drops : int;
  mutable bytes_sent : int;
  check : bool;  (** audit packet conservation on every send/tx-done *)
}

(** [check_invariants] (default {!Sim.Invariant.default}) wraps the
    queue discipline with {!Qdisc.with_invariants} and audits per-link
    packet conservation — arrivals = departures + drops + queued +
    in-service — at every stable point, raising
    {!Sim.Invariant.Violation} on the first broken account.

    @raise Invalid_argument when [bandwidth] is not finite and
    positive, or [delay] not finite and non-negative (NaN included). *)
val create :
  ?check_invariants:bool ->
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
    admission hooks, enqueues (or drops), and starts the transmitter if
    idle. While the link is down every packet is dropped with [Down]. *)
val send : t -> Packet.t -> unit

(** Service rate in packets/s for [Packet.default_size] packets. *)
val capacity_pps : t -> float

(** Packets currently waiting (excluding the one being serialized). *)
val queue_length : t -> int

val is_up : t -> bool

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
