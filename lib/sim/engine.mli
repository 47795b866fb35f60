(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue. Events are thunks
    scheduled at absolute or relative virtual times; they fire in time
    order (FIFO among simultaneous events) and may schedule further
    events. Every run of the same event program is deterministic.

    {!schedule} and {!schedule_at} push the caller's closure straight
    onto the event queue, with no handle and {e no allocation}: the
    contract the per-packet path ({!Net.Link}) and the per-flow source
    timers ({!Net.Source}) are built on. A one-shot event cannot be
    cancelled; a caller that must drop one keeps its own armed flag,
    pending count or generation number and lets the closure return
    early. Only the recurrence {!every} returns a {!handle}.

    Events scheduled a delay after now ({!schedule}, every re-arm of
    {!every}) join the {!Event_queue} lane of their delay, behind which
    they cost O(1); only each lane's head sits in the binary heap.
    Absolute times ({!schedule_at}, the first firing of [every ~start])
    go to the heap. The firing order is the same either way. *)

type t

(** Cancellation token for a recurring event. *)
type handle

(** [create ()] builds an engine with its clock at [0.]. When
    {!Invariant.default} is on at creation, the engine audits clock
    monotonicity on every step and raises {!Invariant.Violation} when
    it breaks. *)
val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** A read-only view of the engine's clock: the event queue's own
    {!Event_queue.clock}, which a step's pop moves to the event's time
    and {!run_until} advances to its limit. Inside an event it holds
    that event's time. The clock is an all-float record, so a component
    that keeps the view reads the time with one unboxed load, while
    {!now} returns its float boxed whenever the call is not inlined —
    always in dune's dev profile, which compiles with [-opaque]. *)
type clock = Event_queue.clock = private { mutable time : float }

val clock : t -> clock

(** The engine's event tracer — one per engine, disabled until
    [Sim.Trace.enable]; components grab it at construction and guard
    every recording site with [Sim.Trace.want]. *)
val trace : t -> Trace.t

(** The engine's metrics registry — one per engine; components register
    probes at construction while {!Metrics.auto_probes} is on. *)
val metrics : t -> Metrics.t

(** Number of events still pending. *)
val pending : t -> int

(** Events executed since creation — the events/sec denominator the
    bench harness reports. *)
val executed : t -> int

(** Events scheduled since creation. *)
val events_scheduled : t -> int

(** [schedule t ~delay f] fires [f] at [now t +. delay], appending [f]
    to the lane of [delay]: O(1) when the lane is busy, one heap
    sift-up when it was empty. Use it with a persistent, reused closure
    on the hot path (per-packet transmission completions and
    deliveries).
    @raise Invalid_argument if [delay] is negative or not finite, or if
    [now t +. delay] overflows to infinity. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] fires [f] at absolute time [time]. The
    event takes the next sequence number and goes to the heap, exactly
    as the first firing of [every ~start:time] would.
    @raise Invalid_argument if [time] is in the past or not finite. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [every t ~start ~period f] fires [f] at [start], [start +. period],
    [start +. 2 *. period], ... until the handle is cancelled. [start]
    defaults to [now t +. period]. After the first firing, the
    recurrence allocates nothing per period: one closure is re-pushed
    onto the lane of [period], so a population of same-period timers
    holds one heap entry, not one each.
    @raise Invalid_argument if [period <= 0.] or not finite, or if
    [start] is in the past or not finite. *)
val every : t -> ?start:float -> period:float -> (unit -> unit) -> handle

(** Stop a recurrence: its pending firing runs nothing and is not
    re-armed. Cancelling twice is a no-op. *)
val cancel : handle -> unit

(** Execute the next pending event; returns [false] if none remain. A
    step boxes nothing: the queue writes the event's time into the
    clock, and no float crosses a module boundary.
    @raise Invariant.Violation when the audit is on and the event's
    time is behind the clock. *)
val step : t -> bool

(** Run until the event queue drains. *)
val run : t -> unit

(** [run_until t limit] executes every event with time [<= limit], then
    advances the clock to [limit]. Recurring events keep the queue
    non-empty, so simulations normally terminate through [run_until].
    [run_until t infinity] runs until the queue drains.
    @raise Invalid_argument if [limit] is NaN. *)
val run_until : t -> float -> unit
