(** The chaos scenario battery: Corelite robustness under injected
    faults (deterministic fault-injection layer, see DESIGN.md).

    Each point runs the Figure 5 workload (flows 1-10 of the paper's
    topology) under a {!Sim.Faultplan.t} — uniform marker loss,
    Gilbert-Elliott bursty packet loss, periodic link flaps, or router
    resets — with edge soft-state recovery enabled, and measures
    steady-window fairness and goodput plus the injector's own
    counters. The whole battery is deterministic: every fault draw
    descends from [(fault_seed, point label)], so serial and pooled
    runs (and any two runs with the same seeds) produce byte-identical
    {!csv_of_groups} output — test_chaos asserts that over the quick
    battery, and [results/chaos_battery.csv] pins the full one. *)

type point = {
  label : string;
  level : float;  (** the swept knob: loss probability, period fraction *)
  jain : float;  (** weighted Jain index over the steady window *)
  goodput : float;  (** total delivered pkt/s over the steady window *)
  core_drops : int;  (** all packets lost on core links (faults included) *)
  injected_drops : int;  (** packets destroyed by the injector *)
  stripped_markers : int;  (** markers corrupted off forwarded packets *)
  lost_feedback : int;  (** feedback markers suppressed *)
  flaps : int;  (** link-down events fired *)
  feedback : int;  (** feedback markers the cores sent *)
}

(** Default root seed for the fault plans (the [--fault-seed] of the
    experiment binary). *)
val default_fault_seed : int

(** {!Corelite.Params.default} with the edges' feedback-silence
    recovery armed ([silence_epochs = 4], doubling restoration) — the
    parameter set every battery point (including the fault-free
    baseline) runs with. *)
val recovery_params : Corelite.Params.t

(** The battery as pool jobs, grouped by scenario family. [quick]
    shortens each run from 80 to 32 simulated seconds;
    [seed] is the workload seed (default 42), [fault_seed] the plan
    seed (default {!default_fault_seed}). The first marker-loss point
    ([marker_loss=0]) is the fault-free baseline degradation is
    measured against. *)
val jobs :
  ?seed:int ->
  ?quick:bool ->
  ?fault_seed:int ->
  unit ->
  (string * point Pool.job list) list

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

(** CSV of the battery: per group, a header and one line per point
    ([%.6f] metrics) — the byte-level currency of the determinism
    checks. *)
val csv_of_groups : (string * point list) list -> string

val pp_points : Format.formatter -> string * point list -> unit
