(** Evaluation networks.

    {!topology1} builds the paper's Figure 2 network: a chain of core
    routers C1-C2-C3-C4 whose three inter-core links are the congested
    links, and per-flow ingress/egress edge routers hanging off the
    cores. Every link is 4 Mbps with 40 ms propagation delay and a
    40-packet DropTail queue, giving the paper's round-trip times of
    240/320/400 ms for flows crossing 1/2/3 congested links.
    [core_qdisc] substitutes a different queue discipline on the
    congested links (RED/FRED for the related-work ablation).

    The hand-built networks ({!topology1}, {!chain},
    {!single_bottleneck}) route their flows through
    {!Net.Topology.route_paths}; each flow's egress is its own host. *)

type t = {
  engine : Sim.Engine.t;
  topology : Net.Topology.t;
  flows : Net.Flow.t list;  (** ascending flow id *)
  core_links : Net.Link.t list;  (** the potentially congested links *)
}

val flow : t -> int -> Net.Flow.t
(** @raise Not_found for an unknown flow id. *)

(** The default link bandwidth (bits/s) every builder uses when
    [bandwidth] is omitted — 4 Mbps, the paper's link speed. *)
val default_bandwidth : float

(** Capacities of every link, in packets/s, keyed by link id (input for
    the max-min reference solver). *)
val link_capacities : t -> (int * float) list

(** Weighted max-min reference rates (pkt/s) for a set of concurrently
    active flows, in ascending flow id ({!Fairness.Maxmin.solve} over
    every link's capacity). Ids in [active] that name no flow are
    ignored. *)
val expected_rates : t -> active:int list -> (int * float) list

(** [topology1 ~engine ~weights ()] builds the 20-flow network of the
    paper's Figure 2. [weights] gives each flow id its rate weight.
    [flow_ids] (default [1..20]) selects a subset of the flows — e.g.
    Figure 5/6 use flows 1-10 only. Flow paths: 1-5 cross C1-C2;
    6-8 cross C1-C2-C3; 9-10 cross C1-C2-C3-C4; 11-12 cross C2-C3;
    13-15 cross C2-C3-C4; 16-20 cross C3-C4. *)
val topology1 :
  engine:Sim.Engine.t ->
  ?bandwidth:float ->
  ?delay:float ->
  ?queue_capacity:int ->
  ?core_qdisc:(unit -> Net.Qdisc.t) ->
  ?flow_ids:int list ->
  weights:(int -> float) ->
  unit ->
  t

(** [chain ~engine ~cores ~specs ()] builds a linear chain of [cores]
    core routers; each spec [(flow_id, weight, entry, exit)] attaches a
    flow entering the cloud at core [entry] and leaving at core [exit]
    (1-based, [entry <= exit]) through its own edge routers — the
    general form behind {!topology1}, exposed for scenario files.
    @raise Invalid_argument on fewer than two cores. *)
val chain :
  engine:Sim.Engine.t ->
  ?bandwidth:float ->
  ?delay:float ->
  ?queue_capacity:int ->
  ?core_qdisc:(unit -> Net.Qdisc.t) ->
  cores:int ->
  specs:(int * float * int * int) list ->
  unit ->
  t

(** [of_topo ~engine ~graph ~fib ~flows ()] instantiates a generated
    {!Topo.Graph} as a Net topology: one Net node per graph node
    (hosts as edge routers, switches and routers as cores), one
    unidirectional Net link per directed graph link — link ids equal
    graph link ids — and a destination-indexed forwarding table
    ({!Net.Node.set_table}) per switch or router derived from [fib]:
    a node's out-links are its ports in link-id order. Fat-tree
    {!Topo.Graph.Host} nodes get no table, since agents hand their
    packets straight to the first link. Each population entry [i]
    becomes Net flow [i + 1] routed by {!Topo.Fib.route}. Every link
    (access links included) uses [core_qdisc] and is returned in
    [core_links], so schemes police wherever the bottleneck lives.
    Unlike the hand-built networks, whose tables
    {!Net.Topology.route_paths} fills from the flow paths, every
    switch and router gets an entry for every reachable host.
    @raise Failure if a sampled flow's host pair is unreachable. *)
val of_topo :
  engine:Sim.Engine.t ->
  ?bandwidth:float ->
  ?delay:float ->
  ?queue_capacity:int ->
  ?core_qdisc:(unit -> Net.Qdisc.t) ->
  graph:Topo.Graph.t ->
  fib:Topo.Fib.t ->
  flows:Topo.Flows.t ->
  unit ->
  t

(** [single_bottleneck ~engine ~weights n] builds [n] flows sharing one
    core link C1-C2 (each with its own edges) — the minimal fairness
    scenario used by tests and the quickstart example. *)
val single_bottleneck :
  engine:Sim.Engine.t ->
  ?bandwidth:float ->
  ?delay:float ->
  ?queue_capacity:int ->
  ?core_qdisc:(unit -> Net.Qdisc.t) ->
  weights:(int -> float) ->
  int ->
  t
