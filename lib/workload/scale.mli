(** Streaming scale harness over generated topologies.

    [run] regenerates a {!Topo} graph, FIB and flow population from
    [(seed, label)], instantiates it through {!Network.of_topo} under
    one scheme, drives the full churn lifecycle ({!add_flow} at start,
    optional early retirement of a flow prefix, retirement of every
    survivor at the end — so the {!Sim.Invariant} flow ledger balances),
    and aggregates results {e streaming}: three flat int arrays of
    per-flow counters and no per-flow timeseries; like any build, it
    registers metric probes only if {!Sim.Metrics.auto_probes} is on
    (off by default). Equal [(seed, label)] arguments reproduce the
    run byte-identically, serial or pooled. *)

type scheme = Corelite | Csfq | Drr

val scheme_name : scheme -> string

type graph_spec =
  | Fattree of int  (** arity [k]: [k^3/4] hosts *)
  | As_graph of { nodes : int; m : int }
      (** preferential attachment, [m] links per new node *)

val graph_name : graph_spec -> string

type result = {
  label : string;
  scheme : scheme;
  graph : graph_spec;
  n_nodes : int;
  n_links : int;  (** directed *)
  n_hosts : int;
  n_flows : int;
  duration : float;
  measure_from : float;
  events : int;  (** engine events executed by this run *)
  sent : int;  (** packets injected, all flows, whole run *)
  delivered : int;
  drops : int;
  ended_early : int;  (** flows retired at [end_at] *)
  live_at_end : int;  (** live flows at [duration], before the drain *)
  mean_rate : float;  (** delivered pkt/s per measured flow *)
  jain_weighted : float;
      (** Jain index of measured rate per unit weight over the flows
          alive through the measurement window *)
  jain_vs_reference : float option;
      (** Jain index of measured/water-filling rate ratios; [None]
          unless [reference] was requested *)
  csv : string option;
      (** "flow,src,dst,weight,sent,delivered" rows; [None] unless
          [csv] was requested. Byte-deterministic — the golden and
          serial-vs-pooled witness. *)
}

(** Gentler adaptation steps than the paper defaults (alpha = beta =
    0.25 pkt/s, slow-start exit 8 pkt/s): scale runs settle near
    per-unit-weight shares of a few pkt/s, where 1 pkt/s steps
    oscillate across the whole share. *)
val default_source : Net.Source.params

(** [run ~engine ~seed ~label ~graph ~n_flows ~scheme ()] executes one
    scale scenario and returns its aggregate. Links run at
    {!Network.default_bandwidth} with 2 ms propagation (datacenter
    scale) and 40-packet buffers, flow weights are drawn from 1 to 4,
    and every scheme's sources adapt with {!default_source}.
    [duration] defaults to 20 s; rates are measured over its second
    half, [[measure_from, duration]] with [measure_from = duration / 2].
    [end_fraction] retires that fraction of the flow population (lowest
    ids) at [measure_from / 2]; retired flows are excluded from the
    rate statistics but still appear in the CSV. [reference]
    additionally solves the weighted max-min water-filling and reports
    [jain_vs_reference] — quadratic-ish in flows, use at 10^4 and
    below. [trace] arms the engine tracer before the deployment is
    built, so [Flow_start] events of the initial population are
    recorded.
    @raise Invalid_argument on a non-positive or non-finite [duration],
    a non-positive [n_flows], or an [end_fraction] outside [[0, 1)]
    (NaN included). *)
val run :
  engine:Sim.Engine.t ->
  seed:int ->
  label:string ->
  graph:graph_spec ->
  n_flows:int ->
  scheme:scheme ->
  ?duration:float ->
  ?end_fraction:float ->
  ?reference:bool ->
  ?csv:bool ->
  ?trace:Sim.Trace.spec ->
  unit ->
  result
