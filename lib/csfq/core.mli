(** Weighted CSFQ core-router logic for one outgoing link (SIGCOMM '98,
    Figure 2 pseudocode, with normalized-rate labels for the weighted
    variant).

    On each arrival the router estimates the aggregate arrival rate [A]
    and accepted rate [F] by exponential averaging, drops the packet
    with probability [max(0, 1 - alpha / label)], and relabels accepted
    packets to [min(label, alpha)] so downstream routers see the flow's
    leaving rate. The fair share [alpha] (in normalized pkt/s) is
    updated once per [K_link] window: multiplicatively ([alpha *= C/F])
    while congested ([A >= C]), or to the largest label observed while
    uncongested. Every buffer overflow shrinks [alpha] by the overflow
    penalty. *)

type t

val attach : params:Params.t -> rng:Sim.Rng.t -> Net.Link.t -> t
(** Installs the drop/relabel admission hook on the link
    ({!Net.Link.t.on_arrival}).
    @raise Invalid_argument if the link already has a hook
    ({!Net.Link.has_hook}). *)

(** Current fair-share estimate, normalized pkt/s; [None] before the
    first estimation window completes. *)
val alpha : t -> float option

(** Whether the estimator currently believes the link is congested. *)
val congested : t -> bool

(** Estimated aggregate arrival rate, pkt/s. *)
val arrival_rate : t -> float

(** Packets dropped by the probabilistic filter. *)
val early_drops : t -> int

(** Notify the estimator of a buffer overflow on the link (wired by the
    deployment from the link's [on_drop]). *)
val note_overflow : t -> unit

val detach : t -> unit
