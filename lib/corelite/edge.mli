(** Corelite edge-router agent for one flow (paper Section 2, steps 1
    and 3).

    The agent shapes the flow to its allowed rate [bg(f)] (paced
    always-backlogged source), piggybacks a marker carrying
    [rn = bg/w] on every [Nw = K1 * w]-th data packet, and adapts
    [bg(f)] per epoch: linear increase when no feedback arrived,
    decrease by [beta] per feedback marker otherwise, reacting to the
    {e maximum} of the marker counts received from any single core link
    (the bottleneck), not their sum. *)

type t

(** [create ~params ~topology ~flow ?floor ()] builds a stopped agent.
    [floor] is the contracted minimum rate (extension; default none).
    The flow's path must already be installable in [topology]; [start]
    installs it.

    Without [supply] the agent models an always-backlogged flow and
    synthesizes its packets from the topology's pool
    ({!Net.Topology.pool}); its sink releases each one it delivers
    unless [deliver] takes the packet over. With [supply] it shapes
    externally queued traffic instead (micro-flow aggregation, see
    {!Aggregate}): each pacing slot takes one packet from [supply];
    [None] leaves the slot unused. [deliver] is invoked for every
    packet arriving at the egress (e.g. to demultiplex micro-flows to
    their receivers).

    The agent holds its {!Net.Source.t}, built here before the agent
    and connected to it once ({!Net.Source.set_hooks}). A packet reads
    only the agent, its source's float block and an all-float block of
    the flow's weight and floor; the ids it needs (the flow's, the
    ingress node's) are cached ints, so no packet reads the
    {!Net.Flow.t}. *)
val create :
  params:Params.t ->
  topology:Net.Topology.t ->
  flow:Net.Flow.t ->
  ?floor:float ->
  ?epoch_offset:float ->
  ?supply:(unit -> Net.Packet.t option) ->
  ?deliver:(Net.Packet.t -> unit) ->
  unit ->
  t

(** The scheme parameters this agent was built with. *)
val params : t -> Params.t

(** Install the flow's route and start shaping at the initial rate with
    fresh adaptation state. Restarting after [stop] begins a new flow
    lifetime (slow-start again). *)
val start : t -> unit

(** Stop shaping. The sink stays installed so in-flight packets still
    deliver and the agent can be restarted. *)
val stop : t -> unit

(** Edge-router reset: lose the soft state in edge RAM — the adapted
    rate [bg(f)], the per-link feedback counters and the marker spacing
    phase. A running agent restarts its source from the initial rate
    (fresh slow-start); a stopped one just forgets the counters. The
    soft-state recovery the paper's design implies: no resynchronization
    protocol, the control loop relearns the rate. *)
val reset : t -> unit

(** Application backlog control for bursty sources (see
    {!Net.Source.set_active}). *)
val set_backlogged : t -> bool -> unit

val running : t -> bool

(** Current allowed transmission rate [bg(f)], pkts/s. *)
val rate : t -> float

(** Deliver a feedback marker from the core link with id [link_id]. The
    agent counts the epoch's markers per link in an int array indexed
    by the link's position on the flow's path, plus one slot for
    {!handoff_link}; a stopped agent drops the marker.
    @raise Invalid_argument naming the flow and the link when [link_id]
    is neither on the flow's path nor {!handoff_link}. *)
val receive_feedback : t -> link_id:int -> Net.Packet.marker -> unit

(** The pseudo core-link id under which a multi-cloud hand-off reports
    backpressure to this agent: the negated flow id, so that it never
    names a real link of a positive flow id. *)
val handoff_link : t -> int

(** Data packets delivered end-to-end to this flow's egress, the
    consumed ones included: the delay statistics' count, so a delivery
    updates the statistics alone. *)
val delivered : t -> int

(** Mean end-to-end delay of delivered packets, seconds ([0.] before
    any delivery), kept as a running Welford mean. Corelite's early
    feedback keeps queues short, so this stays close to the propagation
    delay. *)
val mean_delay : t -> float

(** Data packets sent, markers attached, feedback markers received. *)
val sent : t -> int

(** Simulation time at which this agent's last packet left, supplied
    ones included ({!Net.Source.last_sent}; creation time before any
    packet). A pacing slot whose [supply] is empty leaves it alone.
    Drives soft-state expiry: a dynamic deployment ages out agents idle
    past a timeout. *)
val last_activity : t -> float

val markers_attached : t -> int

val feedback_received : t -> int

(** Control-plane latency of feedback selected at core link [link_id]:
    the flow's upstream propagation delay to that link
    ({!Net.Flow.delay_to}), [0.] off the path. *)
val feedback_delay : t -> link_id:int -> float
