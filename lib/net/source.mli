(** Rate-adaptive paced packet source.

    Implements the adaptation scheme both evaluated agents share (paper
    Section 4): an always-backlogged source paced at the allowed rate
    [bg]. After startup the source is in slow-start, doubling its rate
    every [ss_period] seconds until either the first congestion
    indication arrives or the rate would exceed [ss_thresh]; both exits
    halve the rate and switch to linear increase. From then on, once per
    [epoch]: with [m] congestion indications collected during the epoch,

    - [m = 0]: [bg <- bg + alpha] (probe for spare rate);
    - [m > 0]: [bg <- max (floor, bg - beta * m)] (throttle
      proportionally to the feedback).

    What counts as a congestion indication is scheme-specific (Corelite:
    max over core links of marker feedbacks; CSFQ: packet losses), so the
    caller supplies [collect], which returns and clears the epoch's
    count. *)

type params = {
  initial_rate : float;  (** pkts/s at (re)start *)
  min_rate : float;  (** global throttling floor, pkts/s *)
  alpha : float;  (** linear increase per epoch, pkts/s *)
  beta : float;  (** decrease per congestion indication, pkts/s *)
  epoch : float;  (** adaptation period, seconds *)
  ss_thresh : float;  (** slow-start exit rate, pkts/s *)
  ss_period : float;  (** slow-start doubling period, seconds *)
  floor : float;  (** contracted minimum rate (extension); [0.] = none *)
  silence_epochs : int;
      (** feedback-silence recovery (robustness extension): after this
          many consecutive feedback-free linear epochs, switch the
          additive [+alpha] probe to multiplying by [restore] until
          feedback resumes. A long silence after sustained throttling
          means the feedback channel itself failed (marker loss, a core
          reset) and the flow is parked far below its share; additive
          restoration would take minutes of simulated time slow-start
          covered in seconds. [0] (the default) disables recovery. *)
  restore : float;
      (** multiplicative restoration factor; must be a finite value
          [> 1] when [silence_epochs > 0]. Default 2 (doubling, like
          slow-start). *)
}

val default_params : params
(** Paper Section 4 settings: initial 1 pkt/s, alpha = 1, beta = 1,
    ss_thresh 32 pkt/s, doubling every second. The paper fixes the
    {e core} epoch at 100 ms but leaves the edge adaptation epoch
    unspecified; the default of 500 ms exceeds the largest round-trip
    time of the evaluation (400 ms), the usual stability condition for
    a delayed control loop — shorter epochs make the sources probe
    faster than feedback can arrive and cause queue overshoot. *)

(** [with_floor params floor] is [params] with its contracted floor set
    to [floor]: [params] itself when its floor already equals [floor],
    so the flows of a deployment that share the scheme's floor share
    one record, else a copy. *)
val with_floor : params -> float -> params

type phase = Slow_start | Linear

type t

(** [create ~engine ~params ~emit ~collect] builds a stopped source.
    [emit ~now] must inject exactly one packet (an agent that needs the
    allowed rate reads {!rate}); [collect ()] must
    return the number of congestion indications accumulated since the
    previous call and reset its counter.

    [id] (default [-1]) labels this source's [Sim.Trace.Rate_update]
    events; schemes pass the flow id so traces can be joined against
    per-flow enqueues.

    [epoch_offset] (default 0, must be in [0, epoch)) phase-shifts the
    agent's adaptation and slow-start timers. Deployments draw it at
    random per flow: edge routers are not clock-synchronized, and
    phase-locked timers would make all flows raise their rates in the
    same instant — an artifact a packet-level simulator must avoid.

    The pacing, epoch and slow-start timers are three closures built
    here, once. {!start} pushes the first epoch and slow-start firings
    at their absolute times ({!Sim.Engine.schedule_unit_at}) and each
    firing re-arms itself one period later; no start, stop or period
    allocates a handle or a closure.

    @raise Invalid_argument when any rate or period parameter
    ([initial_rate], [epoch], [alpha], [beta], [ss_thresh],
    [ss_period]) is non-positive or non-finite, when [min_rate] or
    [floor] is negative or non-finite, when [silence_epochs] is
    negative or its [restore] factor is not a finite value [> 1], or
    when [epoch_offset] falls outside [0, epoch) — a nan here would
    otherwise pass every sign check and silently produce a nan pacing
    schedule. *)
val create :
  engine:Sim.Engine.t ->
  ?id:int ->
  ?epoch_offset:float ->
  params:params ->
  emit:(now:float -> unit) ->
  collect:(unit -> int) ->
  unit ->
  t

(** (Re)start the source now with fresh adaptation state. A contracted
    [floor] is treated as reserved capacity: the source starts at
    [max initial_rate floor] (skipping slow-start if that already
    exceeds [ss_thresh]) and never throttles below it. *)
val start : t -> unit

(** Stop pacing and adaptation. Idempotent. Timer and pacing events
    already queued stay in the engine and fire as no-ops, as do those
    a restart or a slow-start exit leaves behind. *)
val stop : t -> unit

val running : t -> bool

(** Current allowed rate [bg], pkts/s. *)
val rate : t -> float

val phase : t -> phase

(** Signal a congestion indication outside [collect]'s accounting only
    in the sense that it immediately terminates slow-start (paper: the
    first congestion notification halves the rate and switches to linear
    increase). Safe to call on every indication; after slow-start it does
    nothing. *)
val signal_congestion : t -> unit

(** Packets emitted since creation (across restarts). *)
val emitted : t -> int

(** Application backlog control (bursty / on-off sources, an extension
    the paper lists as ongoing work). While inactive the source emits
    nothing and freezes rate adaptation — an idle application must not
    probe for bandwidth it will not use. Default: active. *)
val set_active : t -> bool -> unit

val active : t -> bool
