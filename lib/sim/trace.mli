(** Preallocated ring-buffer structured event tracer.

    Every engine owns one tracer (see {!Engine.trace}), disabled by
    default. Instrumented components record compact fixed-shape events
    — a timestamp, a {!kind}, two integer slots [a]/[b] and two float
    slots [x]/[y] — into struct-of-arrays ring storage preallocated by
    {!enable}. Recording allocates nothing; when the tracer is
    disabled, {!want} answers [false] from two field reads, so the
    instrumentation contract for hot-path call sites is

    {[
      if Sim.Trace.want tr Sim.Trace.Drop then
        Sim.Trace.record tr ~time kind ~a ~b ~x ~y
    ]}

    (the [want] guard keeps float arguments from being boxed when
    tracing is off, preserving the §7 allocation budget).

    Determinism: events are recorded in engine event order and exported
    with fixed-format number printing, so two runs of the same seeded
    scenario — serial or pooled — export byte-identical traces.

    Per-kind payload schema ([a], [b], [x], [y]):
    - [Enqueue]/[Dequeue]: link id, flow id, queue length after, 0
    - [Drop]: link id, flow id, drop-reason code
      (0 filtered, 1 queue-full, 2 injected, 3 down), 0
    - [Marker_attach]: flow id, edge id, normalized rate, 0
    - [Marker_seen]: link id, flow id, normalized rate, 0
    - [Feedback_emit]: link id, flow id, normalized rate, 0
    - [Feedback_recv]: flow id, link id (-1 = local loss signal), 0, 0
    - [Epoch]: link id, 0, average queue [qavg], marker budget [Fn]
    - [Selector]: link id, 0 = stateless / 1 = cache, then
      stateless: [pw], running-average threshold [rav];
      cache: occupancy, 0
    - [Rate_update]: source/flow id, 0, new rate (pkt/s),
      phase (0 slow-start, 1 linear)
    - [Alpha_update]: link id, 0, fair-share estimate [alpha], 0
    - [Fault]: link id, flow id (-1 = none), fault code
      (0 lose, 1 strip, 2 link-down, 3 link-up), 0
    - [Flow_start]: flow id, ingress node id, weight, arrival size
      (packets; 0 = open-ended)
    - [Flow_end]: flow id, 0, packets sent, packets delivered
    - [Flow_expire]: flow id, 0, idle seconds at expiry, 0 *)

type kind =
  | Enqueue
  | Dequeue
  | Drop
  | Marker_attach
  | Marker_seen
  | Feedback_emit
  | Feedback_recv
  | Epoch
  | Selector
  | Rate_update
  | Alpha_update
  | Fault
  | Flow_start
  | Flow_end
  | Flow_expire

type t

(** A decoded event, as exposed by {!iter}/{!get}. *)
type event = { time : float; kind : kind; a : int; b : int; x : float; y : float }

(** Stable lowercase name used in exports ("enqueue", "epoch", ...). *)
val kind_name : kind -> string

(** All kinds, in export order: the twelve historic kinds followed by
    the flow-lifecycle kinds. *)
val all_kinds : kind list

(** The flow-lifecycle kinds ([Flow_start]/[Flow_end]/[Flow_expire]),
    recorded only by dynamic (churn) deployments. {!digest} prints them
    only when nonzero, so static-run digests match historic goldens. *)
val lifecycle_kinds : kind list

(** The sparse control-plane kinds (everything except the per-packet
    [Enqueue]/[Dequeue]/[Marker_attach]/[Marker_seen]) — the default
    diet for long workloads where per-packet events would overflow any
    reasonable ring. *)
val control_kinds : kind list

(** A tracer configuration, for plumbing through runner layers. *)
type spec = { capacity : int; kinds : kind list }

(** [spec ()] defaults to capacity [65536] and {!all_kinds}.
    @raise Invalid_argument if [capacity <= 0]. *)
val spec : ?capacity:int -> ?kinds:kind list -> unit -> spec

(** A fresh tracer, disabled, holding no storage. *)
val create : unit -> t

val enabled : t -> bool

(** [enable t] arms the tracer: preallocates ring storage for
    [capacity] events (default [65536]) and selects which [kinds] are
    recorded (default {!all_kinds}). Any previously recorded events and
    counts are discarded. @raise Invalid_argument on [capacity <= 0]. *)
val enable : ?capacity:int -> ?kinds:kind list -> t -> unit

(** [apply t spec] = [enable] with the spec's settings. *)
val apply : t -> spec -> unit

(** [want t kind] is [true] iff the tracer is enabled and [kind] is
    selected. Call-site guard: cheap enough for per-packet paths, and
    it keeps [record]'s float arguments unboxed when tracing is off. *)
val want : t -> kind -> bool

(** Record one event (no-op unless [want t kind]). Field meaning is
    per-kind; see the schema above. Allocates nothing. *)
val record : t -> time:float -> kind -> a:int -> b:int -> x:float -> y:float -> unit

(** Events recorded since {!enable} (including any that have since been
    overwritten by ring wrap-around). *)
val recorded : t -> int

(** Events recorded of one kind since {!enable}. *)
val count : t -> kind -> int

(** Events currently retained in the ring ([min recorded capacity]). *)
val length : t -> int

(** [recorded - length]: events lost to wrap-around. Oracles assert
    this is [0] before reasoning about completeness. *)
val dropped_events : t -> int

(** [get t i] is the [i]-th retained event, oldest first.
    @raise Invalid_argument if [i] is out of bounds. *)
val get : t -> int -> event

(** Iterate retained events, oldest first. *)
val iter : t -> (event -> unit) -> unit

(** Export retained events as JSON Lines, one object per event:
    [{"t":...,"kind":"...","a":...,"b":...,"x":...,"y":...}].
    Byte-deterministic for a given event sequence. *)
val to_jsonl : t -> string

(** Export retained events as CSV with header [time,kind,a,b,x,y]. *)
val to_csv : t -> string

(** Compact text summary — per-kind counts, recorded/retained totals
    and an MD5 of the JSONL export — suitable for golden-file
    comparison without committing the raw trace. *)
val digest : t -> string
