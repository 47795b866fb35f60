(** Fluid (analytical) model of Corelite's rate adaptation.

    The paper argues convergence "through both simulations and
    analysis"; this module is the analysis side: a deterministic ODE
    abstraction of the closed loop, integrated with Euler steps.

    State: the allowed rates [b_i(t)]. Per step:

    - every link with load above capacity requests a total rate
      reduction equal to its excess, split among the flows whose
      normalized rate is at or above the link's marker-weighted mean
      (the stateless selector's eligibility rule), proportionally to
      their normalized rates (the marker frequencies);
    - each flow applies the maximum request over its links (the
      bottleneck rule) during the next epoch, or probes upward by
      [alpha] per epoch when nothing was requested.

    Fixed points of these dynamics are exactly the weighted max-min
    allocations, so trajectories can be checked against {!Maxmin} and
    against the packet simulation — the three layers validate each
    other. *)

type flow = { id : int; weight : float; links : int list }

type result = {
  series : (int * Sim.Timeseries.t) list;  (** per flow: [b_i(t)] *)
  final : (int * float) list;  (** rates at the end of the run *)
}

(** [simulate ~capacities ~flows ~duration ()] integrates the fluid
    model. Every flow starts at the probe increment [alpha] = 1 pkt/s,
    which it gains per epoch of 0.5 s; the Euler step is a tenth of an
    epoch. [sample] is the series sampling period (default 1).
    @raise Invalid_argument on empty systems or unknown links. *)
val simulate :
  capacities:(int * float) list ->
  flows:flow list ->
  ?sample:float ->
  duration:float ->
  unit ->
  result
