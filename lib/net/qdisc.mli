(** Queue disciplines for link output queues.

    A queue discipline owns the buffer of packets waiting for
    transmission (the packet currently being serialized on the link is
    not counted). The Corelite and CSFQ experiments use {!droptail} with
    a 40-packet buffer (paper Section 4); {!red} and {!fred} implement
    the related-work comparators of Section 5 for the ablation benches,
    {!drr} the per-flow scheduler Corelite approximates, and
    {!classful} a multi-queue router.

    A discipline is one case of a closed variant, and {!enqueue},
    {!dequeue}, {!length}, {!bytes} and {!kind} dispatch on it with a
    [match]: {!Link} reaches droptail's packets through a single
    block, with no closure in between. Tracing and the occupancy audit
    are the link's business ({!Link.create}); {!audit_enqueue} and
    {!audit_dequeue} are the audit it runs. *)

type action = Enqueued | Dropped

type t

(** The FIFO packet buffer the multi-queue disciplines build on: a
    growable ring ({!Sim.Ring}) with a running byte count, so
    steady-state pushes allocate nothing. Exposed for the model tests
    that check it against a [Stdlib.Queue] reference. *)
module Fifo : sig
  type t

  val create : unit -> t

  val push : t -> Packet.t -> unit

  (** FIFO removal; [None] when empty. *)
  val pop : t -> Packet.t option

  val peek : t -> Packet.t option

  val length : t -> int

  (** Sum of the buffered packets' sizes. *)
  val bytes : t -> int
end

(** Offer a packet to the discipline: [Enqueued] when it now waits in
    the buffer, [Dropped] when the discipline refused it (the caller
    owns it again). *)
val enqueue : t -> Packet.t -> action

(** [dequeue t ~empty] removes and returns the next packet to
    transmit, or returns [empty] itself — compare with [==] — when the
    discipline holds no packet. The sentinel keeps the link's droptail
    dequeue free of an option allocation. *)
val dequeue : t -> empty:Packet.t -> Packet.t

(** Packets waiting. *)
val length : t -> int

(** Bytes waiting. *)
val bytes : t -> int

(** ["droptail"], ["red"], ["fred"], ["drr"] or ["classful"]. *)
val kind : t -> string

(** FIFO with tail drop when more than [capacity] packets wait: a
    fixed ring of [capacity] slots, allocated here, that never grows.
    @raise Invalid_argument on a non-positive capacity. *)
val droptail : capacity:int -> t

type red_params = {
  capacity : int;  (** hard buffer limit, packets *)
  min_thresh : float;  (** packets *)
  max_thresh : float;  (** packets *)
  max_p : float;  (** drop probability at [max_thresh] *)
  queue_weight : float;  (** EWMA gain for the average queue size *)
  mean_pkt_time : float;  (** typical transmission time, for the idle
                              correction (seconds) *)
}

val default_red_params : red_params

(** Random Early Detection (Floyd & Jacobson 1993): drops arriving
    packets with a probability that grows with the EWMA of the queue
    length. [now] supplies the current time for the idle-period
    correction of the average. *)
val red : ?params:red_params -> rng:Sim.Rng.t -> now:(unit -> float) -> unit -> t

(** Flow Random Early Drop (Lin & Morris 1997): RED plus per-flow
    accounting for flows that have packets buffered, bounding each
    flow's buffer occupancy around the per-flow fair share. *)
val fred : ?params:red_params -> ?minq:int -> rng:Sim.Rng.t -> now:(unit -> float) -> unit -> t

(** Deficit Round Robin (Shreedhar & Varghese 1995) with per-flow
    queues and weighted quanta — the state-intensive scheduler that
    achieves weighted fair queueing approximately; the comparison
    baseline for what Corelite approximates {e without} per-flow
    state. [weight] maps a flow id to its rate weight (quantum =
    [weight * quantum_unit] bytes); each flow's queue holds at most
    [capacity] packets.
    @raise Invalid_argument on non-positive capacity or quantum. *)
val drr :
  weight:(int -> float) ->
  ?quantum_unit:int ->
  capacity:int ->
  unit ->
  t

(** How a multi-queue (classful) discipline picks the next class. *)
type scheduler =
  | Priority  (** strict priority: lowest class index first *)
  | Weighted_round_robin of int array
      (** per-class quantum in packets; classes are visited cyclically *)

(** Multi-queue link discipline — the paper notes core routers "may
    have multiple packet queues depending on [their] forwarding
    behavior" while congestion detection uses only the aggregate
    backlog, which is what {!length}/{!bytes} report. [classify] maps a
    packet to its class in [0, classes); each class has its own
    [capacity]-packet DropTail buffer.
    @raise Invalid_argument on nonsensical class counts, capacities or
    quanta, and when a WRR quantum array length differs from
    [classes]. *)
val classful :
  classes:int ->
  classify:(Packet.t -> int) ->
  scheduler:scheduler ->
  capacity:int ->
  unit ->
  t

(** {1 Occupancy audit}

    What {!Link} checks around every enqueue and dequeue when its
    invariant checks are on. Each is a function of the outcome, the
    discipline's {!length} before and after the operation and its
    {!bytes} after it, so a lying discipline can be modelled by its
    numbers alone. Both raise {!Sim.Invariant.Violation}, naming
    [kind], on the first inconsistency: a negative length or byte
    count, an [Enqueued] that did not grow the queue by exactly one, a
    [Dropped] that changed it, a served dequeue that did not shrink it
    by exactly one, or an empty one that changed it. *)

val audit_enqueue : kind:string -> action -> before:int -> after:int -> bytes:int -> unit

(** [served] is whether the dequeue returned a packet. *)
val audit_dequeue : kind:string -> served:bool -> before:int -> after:int -> bytes:int -> unit
