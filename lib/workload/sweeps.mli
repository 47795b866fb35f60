(** Sensitivity and ablation sweeps.

    The paper (Section 4.4) reports that Corelite "is not very
    sensitive" to the core epoch size, the marking threshold, or large
    channel latencies, without showing the data. These sweeps
    regenerate that claim, and additionally probe every constant the
    paper leaves unspecified (cubic coefficient [k], marker cache size,
    selector variant, [pw] cap, edge adaptation epoch).

    Each sweep runs the Figure 5 workload (10 flows, weights ceil(i/2),
    simultaneous start, 80 s) with one dimension varied and reports
    steady-state fairness, error against the max-min reference, drops,
    and convergence time. *)

type point = {
  label : string;  (** e.g. "core_epoch=0.05" *)
  jain : float;  (** steady-state Jain index (window [50, 80] s) *)
  mean_error : float;  (** mean relative error vs max-min reference *)
  core_drops : int;
  convergence : float option;
  feedback : int;
  mean_delay : float;  (** mean end-to-end delay across flows, seconds *)
}

(** Run the Figure 5 workload at seed 42 with the given Corelite
    parameters. [delay] overrides the link propagation delay (latency
    sweep). *)
val run_point : ?delay:float -> label:string -> Corelite.Params.t -> point

val core_epoch : unit -> point list
(** 25, 50, 100, 200, 400 ms congestion-detection epochs. *)

val qthresh : unit -> point list
(** Marking thresholds 2, 4, 8, 16, 24 packets. *)

val k1 : unit -> point list
(** Marker spacing constants 0.5, 1, 2, 4. *)

val latency : unit -> point list
(** Link propagation delays 2, 10, 40, 80 ms. *)

val k_correction : unit -> point list
(** Cubic self-correction coefficients 0, 0.001, 0.005, 0.02, 0.1 —
    including the paper's [k = 0] case whose feedback is too weak. *)

val estimator : unit -> point list
(** Congestion estimator ablation: the paper's M/M/1 + cubic budget vs
    a plain linear-excess controller vs an EWMA-threshold (RED-like)
    controller — the "can be replaced" claim of Section 3.1. *)

val cache_size : unit -> point list
(** Marker cache capacities 16 .. 2048 under the Cache selector
    (answers the paper's "how big does the marker cache need to be"). *)

val selector : unit -> point list
(** Cache vs stateless selective feedback (paper Sections 2 vs 3.2). *)

val pw_cap : unit -> point list
(** Stateless feedback budget caps 0.5, 1, 2, 4. *)

val rav_gain : unit -> point list
(** EWMA gains for the running normalized-rate average (unspecified in
    the paper). *)

val wav_gain : unit -> point list
(** EWMA gains for the markers-per-epoch average (unspecified in the
    paper). *)

val edge_epoch : unit -> point list
(** Edge adaptation epochs 0.1, 0.25, 0.5, 1.0 s. *)

val qdisc : unit -> point list
(** Related-work comparison (Section 5): Corelite and CSFQ against
    plain loss-driven sources over DropTail, RED and FRED queues. *)

val burst : unit -> point list
(** Bursty sources: half the flows turn exponential on/off while the
    rest stay backlogged; fairness metrics are computed over all flows
    (the bursty ones claim less, so the headline number is the drops
    and the backlogged flows' stability across selectors). *)

(** Every sweep group as pool jobs (job id = point label), in the order
    {!all} reports them. The closures are self-contained: each builds
    its own engine and RNG, so they are safe to shard across domains. *)
val jobs : unit -> (string * point Pool.job list) list

(** [all ~domains ()] runs the whole grid as one {!Pool.map_groups}
    batch on up to [domains] workers (default {!Pool.default_domains});
    the points are byte-identical for any [domains]. *)
val all : ?domains:int -> unit -> (string * point list) list

val pp_points : Format.formatter -> string * point list -> unit
