(** Append-only time series of (time, value) samples. *)

type t

val create : unit -> t

val add : t -> float -> float -> unit

val length : t -> int

(** Samples in insertion order. *)
val to_array : t -> (float * float) array

val last : t -> (float * float) option

(** Mean of values with time in [[from, until]]; [None] if no sample
    falls in the window. *)
val window_mean : t -> from:float -> until:float -> float option

(** Value of the most recent sample at or before [time]; [None] if the
    series starts later. Assumes samples were added in time order. *)
val value_at : t -> float -> float option

val iter : t -> (float -> float -> unit) -> unit

(** [smooth t ~window] returns a new series on the same time grid whose
    value at each sample is the trailing mean of the samples within
    [window] seconds. Useful to strip sawtooth oscillation before
    convergence tests. *)
val smooth : t -> window:float -> t
