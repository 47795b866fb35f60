(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue. Events are thunks
    scheduled at absolute or relative virtual times; they fire in time
    order (FIFO among simultaneous events) and may schedule further
    events. Every run of the same event program is deterministic.

    Scheduling comes in two flavours: the cancellable
    {!schedule}/{!schedule_at}/{!every} return a {!handle} (costing a
    handle record plus a guard closure per call), while
    {!schedule_unit}/{!schedule_unit_at} push the caller's closure
    straight onto the event queue with no allocation at all — the
    contract the per-packet hot path ({!Net.Link}) and the per-flow
    source timers ({!Net.Source}) are built on.

    Events scheduled a delay after now ({!schedule}, {!schedule_unit},
    every re-arm of {!every}) join the {!Event_queue} lane of their
    delay, behind which they cost O(1); only each lane's head sits in
    the binary heap. Absolute times ({!schedule_at},
    {!schedule_unit_at}, the first firing of [every ~start]) go to the
    heap. The firing order is the same either way. *)

type t

(** Cancellation token for a scheduled (possibly recurring) event. *)
type handle

(** [create ()] builds an engine with its clock at [0.]. When
    {!Invariant.default} is on at creation, the engine audits clock
    monotonicity on every step and raises {!Invariant.Violation} when
    it breaks. *)
val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** A read-only view of the engine's clock. The clock is an all-float
    record, so a component that keeps the view reads the time with one
    unboxed load, while {!now} returns its float boxed whenever the call
    is not inlined — always in dune's dev profile, which compiles with
    [-opaque]. *)
type clock = private { mutable time : float }

val clock : t -> clock

(** The engine's event tracer — one per engine, disabled until
    [Sim.Trace.enable]; components grab it at construction and guard
    every recording site with [Sim.Trace.want]. *)
val trace : t -> Trace.t

(** The engine's metrics registry — one per engine; components register
    probes at construction. *)
val metrics : t -> Metrics.t

(** Number of events still pending. *)
val pending : t -> int

(** Events executed since creation — the events/sec denominator the
    bench harness reports. *)
val executed : t -> int

(** Events scheduled since creation. *)
val events_scheduled : t -> int

(** [schedule t ~delay f] fires [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** [schedule_at t ~time f] fires [f] at absolute time [time].
    @raise Invalid_argument if [time] is in the past or not finite. *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** [schedule_unit t ~delay f] fires [f] at [now t +. delay] with no
    cancellation handle and {e no heap allocation} (the closure is
    appended directly to the lane of [delay]: O(1) when the lane is
    busy, one heap sift-up when it was empty). Use it with a
    persistent, reused closure for events that are never cancelled —
    per-packet transmission completions and deliveries.
    @raise Invalid_argument if [delay] is negative or not finite. *)
val schedule_unit : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_unit_at t ~time f] fires [f] at absolute time [time],
    with no handle and no allocation: the absolute-time counterpart of
    {!schedule_unit}, for a persistent closure that is never cancelled.
    A caller that must drop a pushed event keeps its own pending count
    and lets the closure return early, as {!Net.Source} does for its
    timers. The event takes the next sequence number and goes to the
    heap, exactly as the first firing of [every ~start:time] would.
    @raise Invalid_argument if [time] is in the past or not finite. *)
val schedule_unit_at : t -> time:float -> (unit -> unit) -> unit

(** [every t ~start ~period f] fires [f] at [start], [start +. period],
    [start +. 2 *. period], ... until the handle is cancelled. [start]
    defaults to [now t +. period]. After the first firing, the
    recurrence allocates nothing per period: one closure is re-pushed
    onto the lane of [period], so a population of same-period timers
    holds one heap entry, not one each.
    @raise Invalid_argument if [period <= 0.] or not finite, or if
    [start] is in the past or not finite. *)
val every : t -> ?start:float -> period:float -> (unit -> unit) -> handle

(** Cancel a pending event. Cancelling an already-fired or already-
    cancelled event is a no-op. *)
val cancel : handle -> unit

val is_cancelled : handle -> bool

(** Execute the next pending event; returns [false] if none remain. *)
val step : t -> bool

(** Run until the event queue drains. *)
val run : t -> unit

(** [run_until t limit] executes every event with time [<= limit], then
    advances the clock to [limit]. Recurring events keep the queue
    non-empty, so simulations normally terminate through [run_until].
    [run_until t infinity] runs until the queue drains.
    @raise Invalid_argument if [limit] is NaN. *)
val run_until : t -> float -> unit
