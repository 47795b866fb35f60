(** Statistics accumulators used across the simulator. *)

(** Time-weighted average of a piecewise-constant signal (e.g. queue
    length). The signal takes value [v] from the instant of [set] until
    the next [set]. *)
module Time_weighted : sig
  type t

  val create : now:float -> init:float -> t

  (** Record that the signal changed to [v] at time [now]. [now] must not
      go backwards. *)
  val set : t -> now:float -> float -> unit

  (** Current value of the signal. *)
  val value : t -> float

  (** Average of the signal over [window start, now]. Returns [value] if
      the window is empty. *)
  val average : t -> now:float -> float

  (** Start a new averaging window at [now]. The signal value carries
      over. *)
  val reset : t -> now:float -> unit
end

(** Fixed-gain exponentially weighted moving average. *)
module Ewma : sig
  type t

  (** [create ~gain] with [0 < gain <= 1]. The first observation
      initializes the average. *)
  val create : gain:float -> t

  val update : t -> float -> unit

  (** Current average; [0.] before any observation. *)
  val value : t -> float

  val is_initialized : t -> bool

  (** Forget all history: back to the just-created state, where the next
      observation (re)initializes the average. Used by soft-state
      recovery paths (router resets). *)
  val reset : t -> unit
end

(** Streaming mean/variance (Welford's algorithm). *)
module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
end
