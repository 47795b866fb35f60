(** Runtime fault injector: interprets a {!Sim.Faultplan.t} against a
    wired topology.

    [apply] resolves each plan entry to concrete links (by exact name,
    or every link for ["*"]), installs a {!Link.set_fault} hook for the
    loss model, and schedules the down/up flap events. Router resets
    are scheme state and are interpreted by the scheme deployments
    (e.g. [Corelite.Deployment.schedule_resets]), not here.

    Every random draw comes from an [Rng.scenario] substream derived
    from the plan's [(seed, label, link, channel)] alone — never from
    the workload's own streams — so a chaos run replays byte-identically
    serially or under [Workload.Pool], and turning the plan off leaves
    the fault-free run untouched. This module is the only one permitted
    to drive random loss on the data path (lint rule L7). *)

type t

(** Resolve and install [plan] on [topology]'s links. Flap events are
    scheduled on the topology's engine at the plan's absolute times, so
    call this before running the simulation.

    @raise Invalid_argument if a named link does not exist, or two
    entries resolve to the same link. *)
val apply : topology:Topology.t -> Sim.Faultplan.t -> t

(** Draw from [link]'s feedback-loss channel: [true] means this
    feedback marker is lost in transit and must not reach the edge.
    Corelite feedback is delivered by direct callback rather than
    through the packet path, so deployments consult this at each
    feedback send. Links the plan doesn't cover never lose feedback
    (and consume no draws). Increments {!feedback_losses} when it
    fires. *)
val feedback_lost : t -> Link.t -> bool

(** Packets destroyed by injected loss ([Lose] verdicts). *)
val injected_drops : t -> int

(** Markers removed from forwarded packets ([Strip] verdicts);
    marked packets destroyed whole count under {!injected_drops}. *)
val stripped_markers : t -> int

(** Feedback markers suppressed via {!feedback_lost}. *)
val feedback_losses : t -> int

(** Link-down flap events that have fired so far. *)
val flaps_fired : t -> int
