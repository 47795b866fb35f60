(** Name-keyed metrics registry: counters, gauges, histograms, probes.

    Every engine owns one registry (see {!Engine.metrics}). Components
    register {e probes} — pull closures over their own counters — at
    construction time; probes cost nothing until {!rows} samples them
    at export, so the hot path is never touched. Push-style instruments
    ({!counter}/{!gauge}/{!histogram}) are for code that already runs
    at a low rate (samplers, epoch handlers); callers gate optional
    push-side work on {!enabled}.

    Registration is get-or-create: asking for an existing name of the
    same kind returns the existing instrument (tests build several
    same-shaped components on one engine), re-registering a probe
    replaces it, and a name collision across kinds raises.

    Exports ({!rows}) are sorted by name and printed with
    fixed formats, so they are byte-deterministic; CSV rendering —
    which needs quoting — lives in [Workload.Csv.of_metrics]. *)

type t

type counter

type gauge

type histogram

val create : unit -> t

(** Whether push-side consumers should bother: {!Workload.Runner} and
    friends skip optional instrumentation work when [false] (the
    default). Instruments themselves always accept updates. *)
val enabled : t -> bool

val set_enabled : t -> bool -> unit

(** Whether {!probe} registrations are accepted (the default). Scale
    runs with 10^5+ flows and links switch this off before building, so
    components' per-flow/per-link construction-time probes — megabytes
    of names and closures at that scale — are skipped wholesale; the
    instruments' own counters are untouched. *)
val auto_probes : t -> bool

val set_auto_probes : t -> bool -> unit

(** [counter t name] registers (or finds) a monotone integer counter. *)
val counter : ?help:string -> t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** [gauge t name] registers (or finds) a last-value-wins float gauge. *)
val gauge : ?help:string -> t -> string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** [histogram t name] registers (or finds) a fixed-bucket histogram.
    [buckets] are strictly increasing upper bounds (default
    [1,2,5,...,1000]); an implicit +inf overflow bucket is added, so
    bucket counts always sum to the observation count.
    @raise Invalid_argument on non-increasing buckets. *)
val histogram : ?help:string -> ?buckets:float array -> t -> string -> histogram

val observe : histogram -> float -> unit

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

(** [(upper_bound, count)] per bucket, in bound order; the last bound
    is [infinity]. Counts are per-bucket, not cumulative. *)
val bucket_counts : histogram -> (float * int) list

(** [probe t name f] registers a pull gauge sampled only by {!rows}.
    Re-registering a name replaces the closure (component rebuilt on a
    reused engine). *)
val probe : ?help:string -> t -> string -> (unit -> float) -> unit

type row = { name : string; kind : string; value : float; help : string }

(** Flat, name-sorted snapshot. Histograms expand to [name.count],
    [name.sum] and one [name.le_<bound>] row per bucket; probes are
    sampled here. *)
val rows : t -> row list
