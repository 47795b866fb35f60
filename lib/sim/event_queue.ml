(* Binary min-heap over a node slab, plus FIFO lanes that keep most
   entries out of the heap.

   Every pending entry is a node in one slab of parallel arrays indexed
   by node id: key (time) in an unboxed [float array], tie-break
   sequence number, and the payload in [vals]. The heap proper is an
   [int array] of node ids; a sift compares the keys and seqs of the
   nodes it names and moves ints only, so it stores no pointer. (Under
   OCaml 5 every pointer store made while the major GC marks darkens
   the value it overwrites; a sift that swapped payloads paid that per
   level.)

   Lanes. An entry added with {!add_delayed} joins the FIFO lane of its
   delay, of which only the head sits in the heap. Such an entry's key
   is [clock.time +. delay], and the clock never goes back, float
   addition is monotone and seqs only grow, so a lane receives its
   entries in (key, seq) order already. The heap therefore holds the
   least entry of every lane, and popping a lane head puts its
   successor at the root for one sift-down: the pop sequence is exactly
   that of a heap holding every entry. [add_delayed] checks the order
   against the lane's tail all the same, since a violation would break
   the heap invariant silently.

   Blocks. The slab is cut into blocks of [block] consecutive nodes.
   Each lane fills a block of its own in node order and then takes a
   free block, so a lane's entries sit side by side in the order they
   pop, and its successor needs no link: it is the next node of the
   block, or the first node of the block the lane took next ([link]).
   A pop thus reads the slab where the previous pop of that lane read
   it. Lanes threaded node by node through a shared free list would
   scatter over the whole slab, tens of MB at 10^5 flows, and every
   pop would pay two dependent cache misses, whose price rises and
   falls with the memory load of the rest of the host. A lane block
   goes back to the free list when its last node is popped and its
   lane has moved on: [live] counts its pending nodes, plus one while
   the lane still fills it. Each lane thus holds at most one partly
   filled and one partly popped block.

   Direct adds pop in any order, so their blocks are managed per node
   instead: a popped direct node becomes a spare of its block, chained
   through [seqs], and the next direct add takes a spare from the
   block that gained one last. A direct block whose every node is
   spare goes back to the free list, so a burst of direct adds (every
   flow's first timer firing, at set-up) leaves no slab behind for
   the lanes.

   The delay -> lane table is open addressing over lane ids; it starts
   empty and doubles while at most half full. At most [max_lanes] lanes
   exist; a new delay past the cap is added to the heap directly, which
   changes the cost but not the pop order.

   The clock. The queue keeps the time of its owner: [pop_exn] writes
   the popped key into [clock], and [add_delayed] keys its entry
   [clock.time +. delay]. So the engine reads and advances time with
   unboxed loads and stores on one all-float record, and no float
   crosses the module boundary on a step.

   Allocation contract (vanilla ocamlopt, no flambda): sifts and the
   table probe are top-level recursive functions over ints and a float
   that is already boxed on entry, never binding a closure; the delay
   is hashed with int arithmetic, and a lane add's key is computed
   here, unboxed. Steady-state adds and pops allocate nothing. *)

(* All-float, so OCaml stores it flat and a write is an unboxed store. *)
type clock = { mutable time : float }

type 'a t = {
  clock : clock;
  (* node slab *)
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable length : int;
  (* per block: the lane that fills it (-1: direct adds); its pending
     nodes, plus one while its lane still fills it; the next block in
     the list it is on (its lane's blocks, the free blocks, or the
     direct blocks with a spare node) and, on the last list, the
     previous one; and a direct block's first spare node *)
  mutable owner : int array;
  mutable live : int array;
  mutable link : int array;
  mutable prev : int array;
  mutable spare : int array;
  mutable free : int;
  mutable partial : int;
  (* binary heap of node ids *)
  mutable heap : int array;
  mutable size : int;
  (* lanes: delay, tail node (-1 when empty) and last node handed out
     (-1 if none) per lane id, and the delay -> lane id table (-1 marks
     an empty slot) *)
  mutable lane_delay : float array;
  mutable lane_tail : int array;
  mutable lane_last : int array;
  mutable lanes : int;
  mutable table : int array;
}

(* Eight nodes: 64 bytes of each slab array. Larger blocks stay
   partly pending longer after a burst of direct adds; 16 raised peak
   RSS by 0.5 MB on fattree-k8-1e4 and 8.6 MB on fattree-k16-1e5. *)
let block_bits = 3

let block = 1 lsl block_bits

let initial_capacity = 64

let max_lanes = 512

let initial_table = 16

let create () =
  {
    clock = { time = 0. };
    keys = [||];
    seqs = [||];
    vals = [||];
    length = 0;
    owner = [||];
    live = [||];
    link = [||];
    prev = [||];
    spare = [||];
    free = -1;
    partial = -1;
    heap = [||];
    size = 0;
    lane_delay = [||];
    lane_tail = [||];
    lane_last = [||];
    lanes = 0;
    table = [||];
  }

let clock q = q.clock

let length q = q.length

let is_empty q = q.length = 0

let heap_length q = q.size

let capacity q = Array.length q.vals

let lanes q = q.lanes

(* (key, seq) lexicographic order between two nodes; seq values are
   unique, so the order is total and the pop sequence is independent of
   the internal layout. Float [=] on keys is exact on purpose: equal
   simulation times must compare equal for FIFO tie-breaking. *)
let[@inline] [@corelite.hot] before q a b =
  (* lint: float-eq-ok -- equal times must tie-break on seq, see above *)
  q.keys.(a) < q.keys.(b) || (q.keys.(a) = q.keys.(b) && q.seqs.(a) < q.seqs.(b))

(* Sifts move a hole: [node] is the entry being placed, [i] the hole. *)
let[@corelite.hot] rec sift_up q i node =
  if i = 0 then q.heap.(0) <- node
  else begin
    let parent = (i - 1) / 2 in
    let p = q.heap.(parent) in
    if before q node p then begin
      q.heap.(i) <- p;
      sift_up q parent node
    end
    else q.heap.(i) <- node
  end

let[@corelite.hot] rec sift_down q i node =
  let left = (2 * i) + 1 in
  if left >= q.size then q.heap.(i) <- node
  else begin
    let right = left + 1 in
    let child =
      if right < q.size && before q q.heap.(right) q.heap.(left) then right else left
    in
    let c = q.heap.(child) in
    if before q c node then begin
      q.heap.(i) <- c;
      sift_down q child node
    end
    else q.heap.(i) <- node
  end

(* Called only when no block is free, so every old block is in use and
   the new blocks form the whole free list, lowest first. The added
   payload doubles as the slab fill, so no dummy ['a] is needed. *)
let grow_slab q value =
  let capacity = Array.length q.vals in
  let capacity' = if capacity = 0 then initial_capacity else 2 * capacity in
  let blocks = capacity / block and blocks' = capacity' / block in
  let keys' = Array.make capacity' 0. in
  let seqs' = Array.make capacity' 0 in
  let vals' = Array.make capacity' value in
  let owner' = Array.make blocks' (-1) in
  let live' = Array.make blocks' 0 in
  let link' = Array.init blocks' (fun b -> if b + 1 < blocks' then b + 1 else -1) in
  let prev' = Array.make blocks' (-1) in
  let spare' = Array.make blocks' (-1) in
  Array.blit q.keys 0 keys' 0 capacity;
  Array.blit q.seqs 0 seqs' 0 capacity;
  Array.blit q.vals 0 vals' 0 capacity;
  Array.blit q.owner 0 owner' 0 blocks;
  Array.blit q.live 0 live' 0 blocks;
  Array.blit q.link 0 link' 0 blocks;
  Array.blit q.prev 0 prev' 0 blocks;
  Array.blit q.spare 0 spare' 0 blocks;
  q.keys <- keys';
  q.seqs <- seqs';
  q.vals <- vals';
  q.owner <- owner';
  q.live <- live';
  q.link <- link';
  q.prev <- prev';
  q.spare <- spare';
  q.free <- blocks

let grow_heap q =
  let capacity = Array.length q.heap in
  let heap' = Array.make (if capacity = 0 then initial_capacity else 2 * capacity) 0 in
  Array.blit q.heap 0 heap' 0 capacity;
  q.heap <- heap'

(* Takes a block off the free list for [owner]. *)
let[@corelite.hot] open_block q ~owner ~live value =
  if q.free < 0 then grow_slab q value;
  let b = q.free in
  q.free <- q.link.(b);
  q.owner.(b) <- owner;
  q.live.(b) <- live;
  b

let[@inline] [@corelite.hot] free_block q b =
  q.link.(b) <- q.free;
  q.free <- b

(* The list of direct blocks with a spare node, most recent first. *)
let[@inline] [@corelite.hot] push_partial q b =
  q.prev.(b) <- -1;
  q.link.(b) <- q.partial;
  if q.partial >= 0 then q.prev.(q.partial) <- b;
  q.partial <- b

let[@inline] [@corelite.hot] unlink_partial q b =
  let p = q.prev.(b) and n = q.link.(b) in
  if p >= 0 then q.link.(p) <- n else q.partial <- n;
  if n >= 0 then q.prev.(n) <- p

(* Lane block [b] loses a pending node, or its lane moves on to a new
   block; the last of these frees it. *)
let[@inline] [@corelite.hot] release q b =
  let n = q.live.(b) - 1 in
  q.live.(b) <- n;
  if n = 0 then free_block q b

(* A popped direct node becomes a spare of its block, chained through
   [seqs]. A block left with no pending node has every other node
   spare, so it is on the list of blocks with spares: it leaves that
   list and is freed whole. *)
let[@inline] [@corelite.hot] release_direct q b node =
  let n = q.live.(b) - 1 in
  q.live.(b) <- n;
  if n = 0 then begin
    unlink_partial q b;
    free_block q b
  end
  else begin
    let first = q.spare.(b) in
    q.seqs.(node) <- first;
    q.spare.(b) <- node;
    if first < 0 then push_partial q b
  end

(* A fresh direct block: all its nodes are spares. *)
let[@corelite.hot] open_direct q value =
  let b = open_block q ~owner:(-1) ~live:0 value in
  let base = b lsl block_bits in
  for node = base to base + block - 2 do
    q.seqs.(node) <- node + 1
  done;
  q.seqs.(base + block - 1) <- -1;
  q.spare.(b) <- base;
  push_partial q b

(* Whether [last], the last node a lane took, has a successor in its
   block. *)
let[@inline] [@corelite.hot] block_has_room last = last >= 0 && (last + 1) land (block - 1) <> 0

(* Fills [node], which the caller has just taken. *)
let[@inline] [@corelite.hot] fill q node ~key ~seq value =
  q.keys.(node) <- key;
  q.seqs.(node) <- seq;
  q.vals.(node) <- value;
  let b = node lsr block_bits in
  q.live.(b) <- q.live.(b) + 1;
  q.length <- q.length + 1

let[@inline] [@corelite.hot] heap_push q node =
  if q.size = Array.length q.heap then grow_heap q;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i node

(* Direct adds reuse the spare node of the direct block that gained one
   last, so a node popped and added again is still in cache. Inlined
   into both callers, so a lane add past the cap passes its unboxed
   key on without boxing it. *)
let[@inline] [@corelite.hot] add_direct q ~key ~seq value =
  if q.partial < 0 then open_direct q value;
  let b = q.partial in
  let node = q.spare.(b) in
  let rest = q.seqs.(node) in
  q.spare.(b) <- rest;
  if rest < 0 then unlink_partial q b;
  fill q node ~key ~seq value;
  heap_push q node

let[@corelite.hot] add q ~key ~seq value = add_direct q ~key ~seq value

(* Delays are finite and nonnegative (the engine checks), so integer
   nanoseconds tell apart every pair of delays a simulation is likely
   to use; a collision only lengthens a probe, since the probe compares
   the delays themselves. *)
let[@inline] [@corelite.hot] hash delay mask =
  let x = Float.to_int (delay *. 1e9) * 0x9E3779B97F4A7C1 in
  (x lxor (x lsr 29)) land mask

(* The lane id of [delay], or [-1 - slot] for the empty table slot where
   it would go. The table is never more than half full, so a miss ends
   at an empty slot. *)
let[@corelite.hot] rec probe q delay slot =
  let lane = q.table.(slot) in
  if lane < 0 then -1 - slot
  (* lint: float-eq-ok -- a lane is keyed by its exact delay *)
  else if q.lane_delay.(lane) = delay then lane
  else probe q delay ((slot + 1) land (Array.length q.table - 1))

let grow_table q =
  let size = if Array.length q.table = 0 then initial_table else 2 * Array.length q.table in
  let lane_delay = Array.make (size / 2) 0.
  and lane_tail = Array.make (size / 2) (-1)
  and lane_last = Array.make (size / 2) (-1) in
  Array.blit q.lane_delay 0 lane_delay 0 q.lanes;
  Array.blit q.lane_tail 0 lane_tail 0 q.lanes;
  Array.blit q.lane_last 0 lane_last 0 q.lanes;
  q.lane_delay <- lane_delay;
  q.lane_tail <- lane_tail;
  q.lane_last <- lane_last;
  q.table <- Array.make size (-1);
  for lane = 0 to q.lanes - 1 do
    let d = lane_delay.(lane) in
    q.table.(-1 - probe q d (hash d (size - 1))) <- lane
  done

let new_lane q delay =
  if 2 * (q.lanes + 1) > Array.length q.table then grow_table q;
  let lane = q.lanes in
  q.lanes <- lane + 1;
  q.lane_delay.(lane) <- delay;
  q.lane_tail.(lane) <- -1;
  q.lane_last.(lane) <- -1;
  q.table.(-1 - probe q delay (hash delay (Array.length q.table - 1))) <- lane;
  lane

(* The lane of [delay], created on first use; [-1] once [max_lanes]
   lanes exist and [delay] has none. *)
let[@corelite.hot] lane_of q delay =
  let size = Array.length q.table in
  let found = if size = 0 then -1 else probe q delay (hash delay (size - 1)) in
  if found >= 0 then found else if q.lanes < max_lanes then new_lane q delay else -1

let[@corelite.hot] add_delayed q ~delay ~seq value =
  let key = q.clock.time +. delay in
  let lane = lane_of q delay in
  if lane < 0 then add_direct q ~key ~seq value
  else begin
    let tail = q.lane_tail.(lane) in
    (* lint: float-eq-ok -- the (key, seq) order of [before] *)
    if tail >= 0 && (key < q.keys.(tail) || (key = q.keys.(tail) && seq <= q.seqs.(tail))) then
      invalid_arg "Event_queue.add_delayed: key before the lane's tail";
    let last = q.lane_last.(lane) in
    let node =
      if block_has_room last then last + 1
      else begin
        let b = open_block q ~owner:lane ~live:1 value in
        if last >= 0 then begin
          (* A pending tail keeps the old block alive, so its [link] is
             the lane's and not the free list's. *)
          if tail >= 0 then q.link.(last lsr block_bits) <- b;
          release q (last lsr block_bits)
        end;
        b lsl block_bits
      end
    in
    q.lane_last.(lane) <- node;
    q.lane_tail.(lane) <- node;
    fill q node ~key ~seq value;
    if tail < 0 then heap_push q node
  end

let[@inline] [@corelite.hot] next_time q =
  if q.size = 0 then infinity else q.keys.(q.heap.(0))

let[@inline] [@corelite.hot] due q limit = q.size > 0 && q.keys.(q.heap.(0)) <= limit

let[@corelite.hot] pop_exn q =
  if q.size = 0 then invalid_arg "Event_queue.pop_exn: empty";
  let node = q.heap.(0) in
  q.clock.time <- q.keys.(node);
  let b = node lsr block_bits in
  let lane = q.owner.(b) in
  if lane >= 0 && node <> q.lane_tail.(lane) then
    (* The lane's next node was handed out right after this one: the
       next node of the block, or the first of the lane's next block
       (read before [release] can hand [b]'s [link] to the free list). *)
    sift_down q 0 (if block_has_room node then node + 1 else q.link.(b) lsl block_bits)
  else begin
    if lane >= 0 then q.lane_tail.(lane) <- -1;
    let last = q.size - 1 in
    q.size <- last;
    if last > 0 then sift_down q 0 q.heap.(last)
  end;
  if lane >= 0 then release q b else release_direct q b node;
  q.length <- q.length - 1;
  (* The slab cell is not blanked (no dummy ['a] exists): popped nodes
     keep stale payloads reachable until an add reuses them or the
     queue is dropped — the same bounded-pinning contract as [Ring]. *)
  q.vals.(node)
