(** Runtime invariant auditing — the dynamic complement of the static
    lint pass ([tools/typelint]).

    Components that maintain accounting the paper's results depend on
    (the engine's clock, link packet conservation, core feedback
    budgets) read {!default} once, when they are created. When it is
    on they call {!require} at their stable points; a failed check
    raises {!Violation} immediately, naming the broken property,
    instead of silently corrupting a figure.

    {!default} is the one switch: a test suite turns every check on
    with [Sim.Invariant.set_default true] before it builds anything,
    and production runs pay nothing.

    All auditor state is atomic, so checks may run concurrently from
    every {!Workload.Pool} worker domain without losing counts. *)

exception Violation of string

(** Whether components created from now on audit their invariants.
    Starts [false]. *)
val default : unit -> bool

val set_default : bool -> unit

(** [require ~what cond] raises [Violation what] when [cond] is false.
    Callers guard the call (and any expensive condition) behind the
    value of {!default} they read at creation. *)
val require : what:string -> bool -> unit

(** Like {!require} with a lazily built message, for conditions cheap
    to test but expensive to describe. *)
val requiref : what:(unit -> string) -> bool -> unit

(** Number of invariant checks executed so far in this process — lets
    tests assert that auditing actually ran. *)
val checks_run : unit -> int

(** {1 Flow-table ledger}

    Dynamic (churn) deployments create per-flow edge state on a flow's
    first packet and retire it when the flow completes or its soft
    state expires idle. Every creation and retirement is declared here
    so churn oracles can prove the edge flow table never leaks:
    [flows_created () = flows_retired () + live] at any stable point,
    and [flows_expired () <= flows_retired ()]. Writers are the
    corelite/csfq dynamic deployments. Counters are process-wide and
    atomic, mirroring the fault ledger. *)

(** Record one per-flow edge state created. *)
val note_flow_created : unit -> unit

(** Record one per-flow edge state retired (explicit flow end). *)
val note_flow_retired : unit -> unit

(** Record one per-flow edge state retired by idle soft-state expiry.
    Counts toward both [flows_expired] and [flows_retired]. *)
val note_flow_expired : unit -> unit

val flows_created : unit -> int

val flows_retired : unit -> int

val flows_expired : unit -> int
