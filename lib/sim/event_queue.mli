(** Min-priority queue of timestamped entries: a binary heap plus FIFO
    lanes.

    Entries are ordered by [key] (simulation time) and, for equal keys,
    by [seq] (insertion order), so simultaneous events fire in FIFO
    order.

    Entries are read with {!next_time}, {!due} and {!pop_exn}; {!due}
    and {!pop_exn} box nothing and allocate nothing.

    {b Clock.} The queue keeps its owner's time in {!clock}: {!pop_exn}
    writes the popped key into it, and {!add_delayed} keys its entry
    [clock.time +. delay]. An owner that adds direct keys no earlier
    than the clock and moves the clock forward only up to {!next_time}
    (the engine's [run_until]) never sees it go back.

    Every pending entry is a node in one slab (key, seq and the
    payload, in parallel arrays). The heap holds node ids only,
    so a sift moves ints and stores no pointer — under OCaml 5, every
    pointer store made while the major GC is marking darkens the value
    it overwrites.

    {b Lanes.} {!add} puts an entry in the heap. {!add_delayed} puts it
    at the tail of the FIFO lane of its [delay], of which only the head
    sits in the heap; popping a lane
    head moves its successor into the heap with one sift-down. An
    engine adding every event [delay] after a clock that never goes
    back hands each lane its entries in [(key, seq)] order, so the pop
    sequence is exactly that of {!add} alone, while the heap holds one
    entry per busy lane instead of one per pending event. At most
    {!max_lanes} lanes exist; a new delay past the cap goes to the heap.

    The slab is handed out in blocks of 8 nodes. Each lane fills
    blocks of its own in order, so its entries sit side by side in the
    order they pop, and a lane block is reused once all its nodes have
    popped. Direct adds reuse single popped nodes of their own blocks.
    Popped payloads are not blanked: free nodes keep a stale payload
    reachable until an add reuses the node or the queue is dropped. *)

type 'a t

val create : unit -> 'a t

(** The time of the queue's owner: the key of the last entry popped, or
    wherever the owner moved it since ([0.] at creation). All-float, so
    a read or a write is an unboxed load or store. *)
type clock = { mutable time : float }

val clock : 'a t -> clock

(** Number of pending entries, in the heap and in lanes. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [add q ~key ~seq v] inserts [v] with priority [(key, seq)] into the
    heap. Allocation-free except when the backing arrays double. *)
val add : 'a t -> key:float -> seq:int -> 'a -> unit

(** The most lanes one queue creates (512). *)
val max_lanes : int

(** [add_delayed q ~delay ~seq v] inserts [v] with priority
    [(key, seq)], [key = (clock q).time +. delay], at the tail of the
    lane of [delay]. The first use of a delay creates its lane; once
    {!max_lanes} lanes exist, a delay without one goes to the heap as
    by {!add}. Lanes are told apart by float equality on [delay], so a
    NaN delay never finds its lane. Allocation-free except when the
    backing arrays or the delay table double.
    @raise Invalid_argument if [(key, seq)] does not come strictly after
    the lane's current tail (the clock went back). *)
val add_delayed : 'a t -> delay:float -> seq:int -> 'a -> unit

(** Lanes created since creation. *)
val lanes : 'a t -> int

(** Entries in the heap: direct adds plus one head per non-empty lane. *)
val heap_length : 'a t -> int

(** Nodes the slab holds, pending or free: its memory, for accounting
    and tests. *)
val capacity : 'a t -> int

(** [next_time q] is the minimum key, or [infinity] when the queue is
    empty (finite keys are enforced by the engine, so [infinity] is an
    unambiguous sentinel). *)
val next_time : 'a t -> float

(** [due q limit] is [true] when the queue holds an entry with key
    [<= limit]: {!next_time}'s test without its boxed result. *)
val due : 'a t -> float -> bool

(** [pop_exn q] removes and returns the minimum entry's payload without
    boxing, and writes its key into {!clock}.
    @raise Invalid_argument when empty — guard with {!is_empty}. *)
val pop_exn : 'a t -> 'a
