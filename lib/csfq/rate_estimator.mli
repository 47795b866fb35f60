(** Exponential averaging rate estimator (CSFQ, SIGCOMM '98, eq. 3).

    On each arrival of [amount] units at time [now], with [T] the
    inter-arrival gap and [K] the time constant:

    [r <- (1 - e^(-T/K)) * amount/T + e^(-T/K) * r]

    The time-based decay makes the estimate robust to the packet
    inter-arrival pattern, unlike a per-packet EWMA. *)

(** The estimator's state: the time constant [k], the estimate [rate]
    (units of [amount] per second), the time of the [last] arrival and
    [seen] ([1.] once an arrival came, [0.] before). All-float, so
    OCaml stores it flat: a per-packet reader loads [rate] unboxed,
    where {!value} returns it boxed across a module boundary. *)
type t = private {
  k : float;
  mutable rate : float;
  mutable last : float;
  mutable seen : float;
}

val create : k:float -> t
(** @raise Invalid_argument if [k <= 0.]. *)

(** Fold one arrival into the estimate, whose new value [rate] holds.
    Simultaneous arrivals are handled by the [T -> 0] limit,
    [r <- r + amount/K]. Returns nothing, so the per-packet callers
    box no result. *)
val update : t -> now:float -> amount:float -> unit

(** Current estimate without new data. *)
val value : t -> float

(** Decay the estimate to account for silence since the last arrival
    (used when reading the estimate long after traffic stopped). *)
val read : t -> now:float -> float
