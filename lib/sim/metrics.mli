(** Name-keyed metrics registry: counters, histograms, probes.

    Every engine owns one registry (see {!Engine.metrics}). Components
    register {e probes} — pull closures over their own counters — at
    construction time, while {!auto_probes} is on; probes cost nothing
    until {!rows} samples them at export, so the hot path is never
    touched. Push-style instruments ({!counter}/{!histogram}) are for
    code that already runs at a low rate (samplers, epoch handlers).

    Registration is get-or-create: asking for an existing name of the
    same kind returns the existing instrument (tests build several
    same-shaped components on one engine), re-registering a probe
    replaces it, and a name collision across kinds raises.

    Exports ({!rows}) are sorted by name and printed with
    fixed formats, so they are byte-deterministic; CSV rendering —
    which needs quoting — lives in [Workload.Csv.of_metrics]. *)

type t

type counter

type histogram

val create : unit -> t

(** The registry's one switch: whether {!probe} registrations are
    accepted. Off by default, so components build no per-flow or
    per-link probe names and closures (megabytes at 10^5 flows); a run
    that exports its registry switches it on before building anything.
    Counters and histograms register either way. *)
val auto_probes : t -> bool

val set_auto_probes : t -> bool -> unit

(** [counter t name] registers (or finds) a monotone integer counter. *)
val counter : ?help:string -> t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

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

(** [probe t name f] registers a pull closure sampled only by {!rows},
    and does nothing while {!auto_probes} is off. Re-registering a name
    replaces the closure. *)
val probe : ?help:string -> t -> string -> (unit -> float) -> unit

type row = { name : string; kind : string; value : float; help : string }

(** Flat, name-sorted snapshot. Histograms expand to [name.count],
    [name.sum] and one [name.le_<bound>] row per bucket; probes are
    sampled here. *)
val rows : t -> row list
