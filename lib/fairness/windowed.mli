(** Time-windowed fairness metrics over cumulative-delivery series.

    Convergence-window Jain ({!Metrics.jain_index} over a steady-state
    mean) judges a static workload; under churn there is no steady
    state, so fairness must be judged {e per time window} among the
    flows actually competing in each window. All functions here consume
    nondecreasing cumulative series — packets delivered by time [t], as
    sampled by the runners — which makes every windowed throughput a
    telescoping difference: summed across windows it equals the
    end-to-end total exactly (the invariant the QCheck properties pin
    down).

    Windows tile [[from, until]] left to right; the last window is
    partial when the span is not a multiple of [window]. A time before
    a series' first sample reads as cumulative 0. *)

(** Window boundaries: [from; from + window; ...; until].
    @raise Invalid_argument unless [window > 0] and [until > from]
    (all finite). *)
val boundaries : from:float -> until:float -> window:float -> float array

(** Per-window mean throughput of one flow: [(window start, rate)] per
    window, rate in units of the cumulative series per second. *)
val throughput :
  Sim.Timeseries.t -> from:float -> until:float -> window:float -> (float * float) array

(** Per-window weighted Jain index across flows, given [(weight,
    cumulative series)] per flow: [(window start, jain, active)] where
    [active] counts the flows that delivered anything in the window —
    only those participate (under churn, zero-rate absentees would
    measure lifetime overlap, not fairness). A window with fewer than
    two active flows is vacuously fair (Jain 1). *)
val jain_series :
  flows:(float * Sim.Timeseries.t) list ->
  from:float ->
  until:float ->
  window:float ->
  (float * float * int) array

(** Mean of {!jain_series} over the contended windows (at least two
    active flows); [1.] if no window is contended. In (0, 1] — the
    churn battery's gated fairness number. *)
val mean_jain :
  flows:(float * Sim.Timeseries.t) list ->
  from:float ->
  until:float ->
  window:float ->
  float

(** Multi-timescale bandwidth profile (after Nádas et al., PAPERS.md):
    for each timescale, the peak average rate sustained over any
    aligned window of that length. Flat for a compliant flow; a bursty
    heavy hitter peaks at short timescales far above its long-timescale
    average even when its mean stays under a detection threshold. *)
val bandwidth_profile :
  Sim.Timeseries.t ->
  from:float ->
  until:float ->
  timescales:float list ->
  (float * float) list
