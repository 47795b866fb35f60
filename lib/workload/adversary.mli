(** Unresponsive (misbehaving) sources, up to a CLEF-style adversarial
    heavy hitter (see PAPERS.md: "CLEF: Limiting the Damage Caused by
    Large Flows").

    An unresponsive sender that bursts at [peak] pkt/s for the leading
    [duty] fraction of every [period], then goes silent — so its
    average rate [peak * duty] sits just below whatever detection or
    marking threshold the caller aims it under, while its short-
    timescale rate is far above the fair share. The labels it carries
    are honest but smoothed: the CSFQ-style packet label is an
    exponential rate estimate that lags the burst, and the optional
    Corelite marker advertises the long-run average — the blind spot of
    estimation-based policing that {!Fairness.Windowed}'s
    multi-timescale bandwidth profile exposes.

    At [duty = 1.] the gate never closes: the sender is a blaster, the
    classic constant-rate stress case for fair-allocation schemes,
    pacing at [peak] and advertising it; [period] then changes nothing.

    The flow's path must exist in the network (it is installed here);
    the adversary ignores every congestion signal and bypasses the
    schemes' edge agents entirely. *)

type t

(** [attach ~network ~flow ~peak ~duty ~period ()] installs the flow's
    path and starts bursting immediately (first burst begins at the
    current simulation time). [corelite_markers] additionally stamps
    every packet with a Corelite marker advertising the {e average}
    normalized rate.
    @raise Invalid_argument unless [peak > 0], [duty] in (0, 1] and
    [period > 0] (all finite). *)
val attach :
  network:Network.t ->
  flow:int ->
  peak:float ->
  duty:float ->
  period:float ->
  ?corelite_markers:bool ->
  unit ->
  t

(** Cancel the pacing timer (the flow falls silent). *)
val stop : t -> unit

val sent : t -> int

val delivered : t -> int

(** Delivered/sent — the fraction surviving the network's policing
    ([1.] before the first packet). *)
val survival : t -> float

(** [peak * duty] — the rate a long-timescale detector sees. *)
val average_rate : t -> float

val peak_rate : t -> float
