(* Binary min-heap over unboxed data. The heap proper is three parallel
   arrays indexed by heap position: keys (times) in an unboxed
   [float array], tie-break sequence numbers and payload slots in
   [int array]s. Payloads live apart in a slab, [vals], indexed by
   slot, and never move: [add] writes a payload once, [pop_exn] reads
   it once.

   Why the slab: a sift that swaps payload pointers does a
   [caml_modify] per level, and while OCaml 5's major GC is marking,
   each of those stores darkens the value it overwrites (a header load
   on a cold closure). Sifting ints instead stores no pointer at all,
   and every simulated packet crosses this structure twice per hop.

   Free slots need no array of their own. [slots] is a permutation of
   [0, capacity): positions [0, size) are the heap, positions
   [size, capacity) are the free stack, top at [size]. [pop_exn] parks
   the popped slot at the position the heap just vacated, and [add]
   takes the slot at [size] — last in, first out, so the stale payload
   an [add] overwrites is the one just popped, still in cache.

   Allocation contract (vanilla ocamlopt, no flambda): the sift loops
   are top-level recursive functions over [(q, index)] that compare and
   swap array cells directly, never binding a closure or carrying a
   float argument, because a nested [let rec] capturing the in-hand key
   would allocate a closure (and box the float) on every push and
   pop. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable size : int;
}

let initial_capacity = 64

let create () = { keys = [||]; seqs = [||]; slots = [||]; vals = [||]; size = 0 }

let clear q =
  (* Drop the storage too: a cleared queue must not pin the payloads of
     a previous run alive (pool workers keep queues across scenarios). *)
  q.keys <- [||];
  q.seqs <- [||];
  q.slots <- [||];
  q.vals <- [||];
  q.size <- 0

let length q = q.size

let is_empty q = q.size = 0

(* (key, seq) lexicographic order between two heap positions; seq
   values are unique, so the heap order is total and the pop sequence
   is independent of the internal layout. Float [=] on keys is exact on
   purpose: equal simulation times must compare equal for FIFO
   tie-breaking. *)
let[@inline] [@corelite.hot] slot_lt q i j =
  q.keys.(i) < q.keys.(j) || (q.keys.(i) = q.keys.(j) && q.seqs.(i) < q.seqs.(j))

let[@inline] [@corelite.hot] swap q i j =
  let k = q.keys.(i) in
  q.keys.(i) <- q.keys.(j);
  q.keys.(j) <- k;
  let s = q.seqs.(i) in
  q.seqs.(i) <- q.seqs.(j);
  q.seqs.(j) <- s;
  let v = q.slots.(i) in
  q.slots.(i) <- q.slots.(j);
  q.slots.(j) <- v

let[@corelite.hot] rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if slot_lt q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let[@corelite.hot] rec sift_down q i =
  let left = (2 * i) + 1 in
  if left < q.size then begin
    let right = left + 1 in
    let child =
      if right < q.size && slot_lt q right left then right else left
    in
    if slot_lt q child i then begin
      swap q i child;
      sift_down q child
    end
  end

(* Called only when full, so every old slot is in the heap and the new
   slots [capacity, capacity') form the whole free stack. *)
let grow q value =
  let capacity = Array.length q.vals in
  let capacity' = if capacity = 0 then initial_capacity else 2 * capacity in
  (* The inserted element doubles as the slab fill so no dummy ['a] is
     needed. *)
  let keys' = Array.make capacity' 0. in
  let seqs' = Array.make capacity' 0 in
  let slots' = Array.init capacity' Fun.id in
  let vals' = Array.make capacity' value in
  Array.blit q.keys 0 keys' 0 capacity;
  Array.blit q.seqs 0 seqs' 0 capacity;
  Array.blit q.slots 0 slots' 0 capacity;
  Array.blit q.vals 0 vals' 0 capacity;
  q.keys <- keys';
  q.seqs <- seqs';
  q.slots <- slots';
  q.vals <- vals'

let[@inline] [@corelite.hot] add q ~key ~seq value =
  if q.size = Array.length q.vals then grow q value;
  let i = q.size in
  q.keys.(i) <- key;
  q.seqs.(i) <- seq;
  q.vals.(q.slots.(i)) <- value;
  q.size <- i + 1;
  sift_up q i

let[@inline] [@corelite.hot] next_time q = if q.size = 0 then infinity else q.keys.(0)

let[@corelite.hot] pop_exn q =
  if q.size = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let slot = q.slots.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    q.keys.(0) <- q.keys.(last);
    q.seqs.(0) <- q.seqs.(last);
    q.slots.(0) <- q.slots.(last);
    q.slots.(last) <- slot;
    sift_down q 0
  end;
  (* The slab cell is not blanked (no dummy ['a] exists): the free
     slots, at most capacity - length of them, keep stale payloads
     reachable until an [add] overwrites them or [clear] drops the
     slab — the same bounded-pinning contract as [Ring]. *)
  q.vals.(slot)

let pop q =
  if q.size = 0 then None
  else begin
    let key = q.keys.(0) and seq = q.seqs.(0) in
    Some (key, seq, pop_exn q)
  end

let peek_key q = if q.size = 0 then None else Some (q.keys.(0), q.seqs.(0))
