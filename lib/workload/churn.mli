(** The churn battery: flow churn, flash crowds and adversarial heavy
    hitters under time-windowed fairness gates.

    Each point replays one deterministic {!Arrivals} plan — 8
    long-lived base flows plus Poisson transient arrivals carrying 10%
    of bottleneck capacity, with a diurnal intensity curve and a
    mid-run flash crowd — against one scheme over a shared bottleneck,
    exercising the full dynamic flow lifecycle (edge state created at
    first packet, ended on completion, aged out by the soft-state
    expiry sweep) and measuring {!Fairness.Windowed.mean_jain} over
    4-second windows. Variants per scheme: [static] (base flows only —
    the gate baseline), [churn], [adversary] (churn plus a CLEF-style
    {!Adversary} bursting at 4x the fair share with a 0.8x average) and
    [churn+faults] (churn composed with a {!Sim.Faultplan} whose
    injector is installed before the first arrival).

    Determinism: every draw descends from [(seed, label)] or
    [(fault_seed, label)] scenario streams, so {!csv_of_groups} is
    byte-identical serial or pooled — [results/churn_battery.csv] pins
    the full battery, which [dune runtest] regenerates on one domain
    and CI on two. *)

type scheme = Scale.scheme = Corelite | Csfq | Drr

type variant = Static | Dynamic | Adversarial | Faulty

type point = {
  label : string;
  scheme : string;
  variant : string;
  arrivals : int;  (** honest flows that created edge state *)
  completed : int;  (** sized flows ended by delivering their size *)
  expired : int;  (** flows aged out by the soft-state sweep *)
  leaked : int;  (** flows still holding edge state after the drain — 0 *)
  windowed_jain : float;
      (** {!Fairness.Windowed.mean_jain} over the persistent base flows
          (transients are offered load) — the gated metric *)
  goodput : float;  (** honest delivered pkt/s over the measurement span *)
  adversary_share : float;  (** fraction of bottleneck capacity the adversary got *)
  core_drops : int;
  injected_drops : int;
}

(** Run one point. [quick] shortens the run from 80 to 40 simulated
    seconds. [engine] substitutes a caller-owned (fresh)
    engine — the trace oracle passes one with the tracer armed to
    replay lifecycle events; with it omitted the point is a pure
    function of the remaining parameters. *)
val run_point :
  ?engine:Sim.Engine.t ->
  ?seed:int ->
  ?quick:bool ->
  ?fault_seed:int ->
  scheme:scheme ->
  variant:variant ->
  unit ->
  point

val point_job :
  ?seed:int ->
  ?quick:bool ->
  ?fault_seed:int ->
  scheme:scheme ->
  variant:variant ->
  unit ->
  point Pool.job

(** Run the battery as one {!Pool.map_groups} batch on up to
    [domains] workers (default {!Pool.default_domains}). The payloads
    are byte-identical for any [domains]; [~domains:1] runs every group
    serially, in order. *)
val all :
  ?domains:int ->
  ?seed:int ->
  ?quick:bool ->
  ?fault_seed:int ->
  unit ->
  (string * point list) list

(** CSV of one group (header + one line per point, [%.6f] metrics) —
    the byte-level currency of the determinism checks. *)
val csv_of_points : point list -> string

(** Concatenated {!csv_of_points} of every group. *)
val csv_of_groups : (string * point list) list -> string

(** [gate ~ratio points] checks one scheme's group against its own
    static baseline: for each non-static variant, [(variant, jain,
    baseline jain, jain >= ratio * baseline)].
    @raise Invalid_argument if the group has no static point. *)
val gate : ratio:float -> point list -> (string * float * float * bool) list

val pp_points : Format.formatter -> string * point list -> unit
