(** CSFQ edge agent for one flow.

    The ingress edge estimates the flow's arrival rate by exponential
    averaging and stamps each packet's label with the normalized rate
    [r/w] (weighted CSFQ). Rate adaptation mirrors the Corelite agent
    (paper Section 4: "similar rate adaptation schemes"), except that
    the congestion indications are packet {e losses} reported back to
    the source.

    Packets come from the topology's pool ({!Net.Topology.pool}); the
    agent's sink releases each one it delivers. *)

type t

val create :
  params:Params.t ->
  topology:Net.Topology.t ->
  flow:Net.Flow.t ->
  ?floor:float ->
  ?epoch_offset:float ->
  unit ->
  t

val flow : t -> Net.Flow.t

val start : t -> unit

(** Stop shaping; the sink stays installed for in-flight packets. *)
val stop : t -> unit

(** Application backlog control for bursty sources (see
    {!Net.Source.set_active}). *)
val set_backlogged : t -> bool -> unit

val running : t -> bool

(** Current sending rate, pkt/s. *)
val rate : t -> float

(** Report a lost packet of this flow (one congestion indication). *)
val note_loss : t -> unit

val delivered : t -> int

(** Mean end-to-end delay of delivered packets, seconds, kept as a
    running Welford mean. *)
val mean_delay : t -> float

val sent : t -> int

(** Simulation time of this agent's most recent packet emission
    (creation time before any packet). Drives soft-state expiry in
    dynamic deployments, mirroring [Corelite.Edge.last_activity]. *)
val last_activity : t -> float

val losses : t -> int

(** Last label stamped on an outgoing packet (normalized pkt/s). *)
val current_label : t -> float

(** Latency of a loss report from link [link_id] back to this edge: the
    flow's upstream propagation delay to that link
    ({!Net.Flow.delay_to}), [0.] off the path. *)
val loss_delay : t -> link_id:int -> float
