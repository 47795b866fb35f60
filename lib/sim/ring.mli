(** Growable circular FIFO buffer — the zero-allocation replacement for
    [Stdlib.Queue] on the per-packet hot path (lint rule L6 confines
    [Queue] out of [lib/net] and [lib/sim] accordingly).

    Unlike [Stdlib.Queue], whose every [push] allocates a cell, steady-
    state [push]/[pop_exn] here touch only the backing array: the ring
    allocates solely when it doubles its capacity. Popped slots are not
    overwritten, so up to one array's worth of stale elements can stay
    reachable until later pushes overwrite them or the ring is
    dropped. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t x] appends [x] at the tail. Amortized O(1); allocates only
    when the backing array doubles. *)
val push : 'a t -> 'a -> unit

(** [pop_exn t] removes and returns the oldest element.
    @raise Invalid_argument when empty — guard with {!is_empty}. *)
val pop_exn : 'a t -> 'a

(** [peek_exn t] returns the oldest element without removing it.
    @raise Invalid_argument when empty — guard with {!is_empty}. *)
val peek_exn : 'a t -> 'a

(** [grown data ~head ~len x] is the ring growth step on a bare
    array: a fresh array of twice [data]'s length (16 slots when [data]
    is empty) holding the [len] elements that start at slot [head] of
    [data], wrapping at its end, at slots [0 .. len - 1], and [x] in
    every other slot. {!push} grows with it, and so does a ring kept
    inline in another record ([Net.Link]'s wire), so the growth logic
    exists once. *)
val grown : 'a array -> head:int -> len:int -> 'a -> 'a array
