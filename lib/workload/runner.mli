(** Unified experiment runner for both schemes.

    Builds a Corelite or weighted-CSFQ deployment on a {!Network.t},
    plays a start/stop schedule, samples every flow's allowed rate and
    cumulative delivery on a fixed grid, and returns the series the
    paper's figures plot. {!deploy}, which builds the deployment, is
    also how {!Scale} and {!Churn} drive theirs. *)

type scheme =
  | Corelite of Corelite.Params.t
  | Csfq of Csfq.Params.t
  | Plain of Csfq.Params.t
      (** loss-driven adaptive sources with no core logic at all: the
          flows react only to whatever the links' queue disciplines
          drop (DropTail/RED/FRED related-work comparator) *)

val scheme_name : scheme -> string

type action = Start of int | Stop of int

(** {1 Driving a deployment} *)

(** A flow's edge agent under either scheme's deployment. It stays
    readable after the flow retires. *)
type agent

val sent : agent -> int

val delivered : agent -> int

val set_backlogged : agent -> bool -> unit

(** One deployment behind one interface, whatever the scheme: the
    {!Net.Agents.S} lifecycle over the deployment it was built from,
    plus the scheme-specific counters. *)
type driver = {
  agent : int -> agent;  (** @raise Not_found for a flow without edge state *)
  add_flow : size:int -> Net.Flow.t -> agent;
  start_flow : int -> unit;
  stop_flow : int -> unit;
  end_flow : int -> unit;
  expire_idle : timeout:float -> int;
  has_flow : int -> bool;
  live_flows : unit -> int;
  total_drops : unit -> int;
  drops_of_flow : int -> int;
  feedback : unit -> int;  (** Corelite: feedback markers sent; otherwise 0 *)
  early_drops : unit -> int;  (** CSFQ: probabilistic drops; otherwise 0 *)
  schedule_resets : Sim.Faultplan.t -> unit;
      (** Corelite: {!Corelite.Deployment.schedule_resets}; otherwise
          @raise Invalid_argument if the plan has router resets *)
}

(** [deploy ~fault scheme ~rng ~network ~flows] builds the scheme's
    deployment over the network's core links with [flows] as its initial
    agents (not started). [fault] reaches Corelite's feedback channel;
    the other schemes have none. *)
val deploy :
  fault:Net.Fault.t option ->
  scheme ->
  rng:Sim.Rng.t ->
  network:Network.t ->
  flows:Net.Agents.flow_spec list ->
  driver

(** {1 Experiments} *)

(** What the fault injector actually did during a run (present iff a
    plan was passed): packets destroyed, markers stripped off forwarded
    packets, feedback markers suppressed, and link-down events fired. *)
type fault_stats = {
  injected_drops : int;
  stripped_markers : int;
  lost_feedback : int;
  flaps : int;
}

type result = {
  scheme : string;
  network : Network.t;
  rate_series : (int * Sim.Timeseries.t) list;
      (** per flow: allowed rate [bg] (pkt/s); 0 while stopped *)
  goodput_series : (int * Sim.Timeseries.t) list;
      (** per flow: packets delivered per second over each sample
          interval *)
  cumulative : (int * Sim.Timeseries.t) list;
      (** per flow: total packets delivered so far (paper Figure 4) *)
  core_drops : int;  (** packets lost on the congested links *)
  feedback_markers : int;  (** Corelite: feedback sent; CSFQ: 0 *)
  early_drops : int;  (** CSFQ: probabilistic drops; Corelite: 0 *)
  mean_delays : (int * float) list;
      (** per flow: mean end-to-end delay of delivered packets, seconds *)
  drops_by_flow : (int * int) list;
      (** per flow: packets lost on the core links (CSFQ-paper-style
          loss accounting) *)
  fault : fault_stats option;
      (** injector counters; [None] when the run had no fault plan *)
}

(** [run ~scheme ~network ~schedule ~duration ()] executes one
    experiment. [floors] gives contracted minimum rates to specific
    flows; [bursty] makes the listed flows application-limited with
    exponential on/off periods [(flow, on_mean, off_mean)] (both
    extensions). Sampling runs once per simulated second.
    Deterministic for a fixed [seed]; [rng] overrides the root
    generator entirely (pool scenarios pass their
    [Sim.Rng.scenario]-derived stream here, leaving [seed] unused).

    [fault] applies a {!Sim.Faultplan.t} for the run: link loss and
    flaps are installed via {!Net.Fault.apply} for any scheme; router
    resets are scheduled through the Corelite deployment. The injector
    draws only from the plan's own substreams, so the chaos run is a
    pure function of [(seed or rng, plan)] — and a passive plan leaves
    the run byte-identical to a fault-free one.
    @raise Invalid_argument if [duration] is not positive and finite,
    or if the plan carries router resets and the scheme is not
    [Corelite], names an unknown link/flow, or schedules faults in the
    simulated past.

    [trace] arms the network engine's {!Sim.Trace} with the given spec
    before the deployment is built; it is a pure observer: omitting it
    leaves the run byte-identical. The runner's own instruments —
    [runner.samples], [runner.goodput] — register in the engine's
    {!Sim.Metrics} registry on every run, beside the component probes
    the network registered while {!Sim.Metrics.auto_probes} was on.
    Export what they captured from [result.network.engine] after the
    run. *)
val run :
  scheme:scheme ->
  network:Network.t ->
  ?seed:int ->
  ?rng:Sim.Rng.t ->
  ?fault:Sim.Faultplan.t ->
  ?trace:Sim.Trace.spec ->
  ?floors:(int * float) list ->
  ?bursty:(int * float * float) list ->
  ?burst_distribution:Net.Onoff.distribution ->
  schedule:(float * action) list ->
  duration:float ->
  unit ->
  result

(** Mean sampled rate of a flow over a time window (steady-state
    measurement); [nan] if the flow has no samples there. *)
val mean_rate : result -> flow:int -> from:float -> until:float -> float

(** Rates of all flows averaged over a window, ascending flow id. *)
val mean_rates : result -> from:float -> until:float -> (int * float) list

(** Jain fairness index of the windowed mean rates against the flow
    weights, over the given flows (default: all). *)
val jain : ?flows:int list -> result -> from:float -> until:float -> float
