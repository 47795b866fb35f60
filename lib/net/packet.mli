(** Network packets.

    All evaluation scenarios use fixed-size 1 KB data packets (paper
    Section 4). A Corelite marker is carried piggybacked on a data packet
    ("logically distinct though it may be physically piggybacked"), so it
    consumes no extra link bandwidth. The [label] float is the CSFQ
    normalized-rate label; it is negative when the packet is unlabelled.

    {1 Ownership}

    A packet is a mutable record that the edge agents recycle through
    a per-topology {!pool}, so that packets stop reaching the major
    heap at scale:

    - {b Who allocates.} [Corelite.Edge] and [Csfq.Edge] take every
      packet they synthesize from their topology's pool ({!alloc}).
      Everything else — TCP segments, aggregate micro-flows, the
      adversary, tests — builds unpooled packets with {!make}.
    - {b Who releases.} Exactly two places hand a pooled packet back
      ({!release}): [Link.drop], after the link's [on_drop] callback
      has run (queue-full, filtered, injected and down drops, and every
      packet a purge loses), and an edge agent's own sink, when no
      [deliver] consumer takes the packet.
    - {b What is left to the GC.} A packet handed to a consumer (the
      multi-cloud hand-off, aggregate micro-flows) is never released
      by the consumer, only collected; releasing an unpooled packet
      does nothing. A missed release therefore costs memory but never
      correctness. A pooled packet that a consumer forwards into
      another topology and that a link there drops goes back to the
      pool that made it.
    - {b Released state.} {!release} stamps [dst] with [-2], so a
      released packet forwarded by mistake fails at the next node with
      "no FIB entry for host -2", and a second release raises. The
      next {!alloc} hands the record out again reset to a fresh
      packet's fields: [dst = -1], no marker, label [-1.].

    Nothing is recycled while something still references it: a link
    reads a packet only while it queues, serializes or propagates it,
    and the core logic copies what must outlive the packet (a feedback
    marker, a cache-selector slot) out of it. *)

(** Corelite marker: identifies the generating edge router and flow, and
    carries the flow's normalized rate [bg/w] for the stateless
    selector. Packets carry it inline ({!t}); a record is built only
    where one outlives the packet — a feedback send. *)
type marker = {
  edge_id : int;  (** node id of the ingress edge router *)
  flow_id : int;
  normalized_rate : float;  (** [bg(f) / w(f)] at injection time *)
}

(** The packet's floats, in one all-float block so that stores to them
    are unboxed. *)
type floats = {
  mutable created : float;  (** injection time at the ingress edge *)
  mutable label : float;  (** CSFQ label; negative when unlabelled *)
  mutable rate : float;
      (** the marker's normalized rate; meaningful only while
          {!has_marker} *)
}

type pool

(** The fields a hop reads come first. *)
type t = {
  mutable dst : int;
      (** destination host index, which nodes forward on. The sending
          ingress stamps it, so a packet one cloud hands on to the next
          is re-stamped there; [-1] until stamped, [-2] once released. *)
  mutable size : int;  (** bytes *)
  mutable marker_edge : int;
      (** the marker's [edge_id]; negative when the packet carries no
          marker *)
  floats : floats;
  mutable marker_flow : int;  (** the marker's [flow_id] *)
  mutable id : int;  (** per-flow sequence number (TCP uses it as the
                         segment sequence) *)
  mutable flow : int;
  mutable micro : int;  (** end-to-end micro-flow id within an edge-to-edge
                            aggregate; 0 when the flow is not an aggregate *)
  owner : pool option;  (** the pool that made it; [None] for {!make} *)
}

val default_size : int
(** 1000 bytes, the paper's fixed packet size. *)

(** An unpooled packet.
    @raise Invalid_argument when [marker] has a negative [edge_id]. *)
val make :
  id:int ->
  flow:int ->
  ?micro:int ->
  ?size:int ->
  ?marker:marker ->
  created:float ->
  unit ->
  t

val has_marker : t -> bool

(** A copy of the carried marker, or [None]. *)
val marker : t -> marker option

(** Piggyback a marker, replacing any carried one.
    @raise Invalid_argument when its [edge_id] is negative. *)
val set_marker : t -> marker -> unit

val clear_marker : t -> unit

(** {1 Pool} *)

(** An empty pool. {!Topology.create} makes one per topology. *)
val create_pool : unit -> pool

(** [alloc pool ~id ~flow ~created] is the most recently released
    packet of [pool], reset to a fresh packet's fields (size
    {!default_size}, micro-flow 0, [dst = -1], no marker, label
    [-1.]), or a new record when none is free. *)
val alloc : pool -> id:int -> flow:int -> created:float -> t

(** Hand a packet back to the pool that made it (see the ownership
    rules above); a no-op for an unpooled packet.
    @raise Invalid_argument when the packet was already released. *)
val release : t -> unit

(** Packets allocated and not yet released. *)
val outstanding : pool -> int
