(** Binary min-heap of timestamped entries.

    Entries are ordered by [key] (simulation time) and, for equal keys,
    by [seq] (insertion order), so simultaneous events fire in FIFO
    order.

    Two access styles coexist: the boxed {!pop}/{!peek_key} return
    options (convenient in tests and cold paths), while the unboxed
    {!next_time}/{!pop_exn} pair serves the engine's hot loop without
    allocating.

    The heap sifts only unboxed data: keys in a flat [float array],
    seqs and payload slot numbers in [int array]s. Payloads sit in a
    separate slab indexed by slot and never move, so a sift stores no
    pointer. This matters under OCaml 5, where every pointer store
    ([caml_modify]) made while the major GC is marking darkens the
    value it overwrites. Freed slots are reused last in, first out.
    Popped payloads are not blanked: at most [capacity - length] free
    slots keep a stale payload reachable until an {!add} reuses the
    slot or {!clear} drops the storage. *)

type 'a t

val create : unit -> 'a t

(** [clear q] empties the queue and releases its storage, returning it
    to the freshly-created state (used when an engine is reset between
    pooled scenario runs). *)
val clear : 'a t -> unit

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [add q ~key ~seq v] inserts [v] with priority [(key, seq)].
    Allocation-free except when the backing arrays double. *)
val add : 'a t -> key:float -> seq:int -> 'a -> unit

(** [next_time q] is the minimum key, or [infinity] when the queue is
    empty — the unboxed replacement for {!peek_key} on the hot loop
    (finite keys are enforced by the engine, so [infinity] is an
    unambiguous sentinel). *)
val next_time : 'a t -> float

(** [pop_exn q] removes and returns the minimum entry's payload without
    boxing.
    @raise Invalid_argument when empty — guard with {!is_empty}. *)
val pop_exn : 'a t -> 'a

(** [pop q] removes and returns the minimum entry, or [None] if empty. *)
val pop : 'a t -> (float * int * 'a) option

(** [peek_key q] returns the minimum [(key, seq)] without removing it. *)
val peek_key : 'a t -> (float * int) option
