(** Scenario definitions for every figure of the paper's evaluation
    (Section 4), plus summary computation against the weighted max-min
    reference.

    - Figures 3/4: 20 flows on Topology 1 (Section 4.1 weights); flows
      1, 9, 10, 11, 16 live only in [250, 500) s; the rest in
      [0, 750) s; run for 800 s. Figure 3 plots the allowed rates,
      Figure 4 the cumulative service of the same run.
    - Figures 5/6: 10 flows, weight ceil(i/2), all starting at t = 0,
      80 s — Corelite vs weighted CSFQ startup behaviour.
    - Figures 7/8: 20 flows (Section 4.3 weights) starting 1 s apart,
      80 s.
    - Figures 9/10: same, but each flow stops after a 60 s life and
      restarts 5 s later — churn behaviour, 160 s. *)

(** A steady-state measurement window and the flows active in it. *)
type phase = {
  label : string;
  from_t : float;
  until_t : float;
  active : int list;
}

type spec = {
  id : string;  (** e.g. "fig3" *)
  title : string;
  scheme : Runner.scheme;
  make_network : engine:Sim.Engine.t -> Network.t;
  schedule : (float * Runner.action) list;
  duration : float;
  phases : phase list;
  conv_tolerance : float;
      (** relative band for the convergence metric; wider for the
          staggered/churn scenarios whose weight-1 flows oscillate with
          a larger relative amplitude *)
}

val fig3 : unit -> spec

val fig5 : unit -> spec

val fig6 : unit -> spec

val fig7 : unit -> spec

val fig8 : unit -> spec

val fig9 : unit -> spec

val fig10 : unit -> spec

val all : unit -> spec list

(** Build the network, play the schedule, return the series. [trace]
    arms the run's engine as in {!Runner.run}; [metrics] (default
    [false]) turns {!Sim.Metrics.auto_probes} on before the network is
    built, so its links, cores and edges register their probes. Export
    from [result.network.engine] afterwards. *)
val run : ?seed:int -> ?trace:Sim.Trace.spec -> ?metrics:bool -> spec -> Runner.result

(** [run_all ~domains specs] runs the specs through {!Pool.map} and
    pairs each with its result, in submission order. *)
val run_all :
  ?domains:int ->
  ?seed:int ->
  ?trace:Sim.Trace.spec ->
  ?metrics:bool ->
  spec list ->
  (spec * Runner.result) list

type flow_row = {
  flow : int;
  weight : float;
  measured : float;  (** mean allowed rate over the phase window *)
  expected : float;  (** weighted max-min reference *)
}

type phase_summary = {
  phase : phase;
  rows : flow_row list;
  jain : float;  (** on allowed/sending rates *)
  mean_error : float;  (** mean relative error vs the reference *)
  goodput_jain : float;  (** on delivered rates — the honest metric for
                             loss-based schemes whose sending rates
                             overshoot *)
  goodput_error : float;
}

type summary = {
  spec_id : string;
  title : string;
  scheme : string;
  phase_summaries : phase_summary list;
  core_drops : int;
  feedback_markers : int;
  early_drops : int;
  convergence : float option;
      (** earliest time from which every flow of the first phase stays
          within the spec's tolerance of its reference for 5 s
          (computed on 5 s-smoothed rates) *)
}

val summarize : spec -> Runner.result -> summary

(** [restart_recovery result ~flow ~restart_at ~target ~fraction] is
    the time after [restart_at] until the flow's (3 s-smoothed) allowed
    rate first reaches [fraction * target] — how quickly a restarted
    flow regains its share (Figures 9/10 discussion). *)
val restart_recovery :
  Runner.result ->
  flow:int ->
  restart_at:float ->
  target:float ->
  fraction:float ->
  float option

val pp_summary : Format.formatter -> summary -> unit

(** The Section 4.1 weight assignment (flows 5, 15 -> 3; flows 1, 11,
    16 -> 1; others -> 2) — exposed for tests. *)
val weights_s41 : int -> float

(** The Section 4.3 weight assignment (adds flow 10 -> 3). *)
val weights_s43 : int -> float

(** The Section 4.2 weight assignment for 10 flows: ceil(i/2). *)
val weights_s42 : int -> float
