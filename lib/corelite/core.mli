(** Corelite core-router logic for one outgoing link.

    The core router's whole job (paper Sections 2-3): forward packets
    normally, watch markers go by, monitor the time-averaged queue size
    once per congestion epoch, and on incipient congestion send weighted
    fair marker feedback to the edges that generated the markers. No
    per-flow state is kept — only the selector's aggregate variables.

    [send_feedback] is the control-plane path back to the edge; the
    deployment wires it with the reverse propagation delay. *)

type t

val attach :
  params:Params.t ->
  rng:Sim.Rng.t ->
  send_feedback:(Net.Packet.marker -> unit) ->
  Net.Link.t ->
  t
(** Installs the marker-observing admission hook on the link
    ({!Net.Link.t.on_arrival}), starts a queue-average window on it
    ({!Net.Link.reset_queue_average}) and starts the congestion-epoch
    timer; each epoch reads and restarts the link's average.
    When {!Sim.Invariant.default} is on at attach time, the core
    audits the feedback budgets — per epoch the cache selector may
    return at most [ceil Fn] markers, per marker the stateless selector
    at most [ceil pw] copies — and non-negativity of [qavg] and [Fn],
    raising {!Sim.Invariant.Violation} on the first breach.
    @raise Invalid_argument if the link already has a hook
    ({!Net.Link.has_hook}). *)

val link : t -> Net.Link.t

(** Average queue size measured in the last completed epoch. *)
val last_qavg : t -> float

(** Marker budget [Fn] computed at the last epoch boundary. *)
val last_fn : t -> float

(** Total feedback markers sent. *)
val feedback_sent : t -> int

(** Epochs that ended congested. *)
val congested_epochs : t -> int

(** Markers observed in total. *)
val markers_seen : t -> int

(** Router reset: wipe the core's soft state — selector cache or
    stateless averages, estimator history, and the queue average
    accumulating for the current epoch — as a crash/reboot would. The
    epoch timer keeps ticking (it models the router's clock, not its
    RAM); subsequent epochs rebuild [qavg] and the feedback budget from
    zero, and the emptied selector guarantees no feedback burst from
    stale state. Pair with {!Net.Link.reset} when the reset should also
    lose the packets buffered at the router. *)
val reset : t -> unit

(** Stop the epoch timer and put back the link's {!Net.Link.admit_all}
    hook. *)
val detach : t -> unit
