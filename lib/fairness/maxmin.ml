type demand = { flow : int; weight : float; links : int list; floor : float }

let demand ?(floor = 0.) ~flow ~weight ~links () =
  if weight <= 0. then invalid_arg "Maxmin.demand: weight must be positive";
  if not (Float.is_finite weight) then invalid_arg "Maxmin.demand: weight must be finite";
  if floor < 0. then invalid_arg "Maxmin.demand: negative floor";
  if not (Float.is_finite floor) then invalid_arg "Maxmin.demand: floor must be finite";
  if links = [] then invalid_arg "Maxmin.demand: flow traverses no link";
  let rec check_twice = function
    | [] -> ()
    | id :: rest ->
      if List.mem id rest then
        invalid_arg (Printf.sprintf "Maxmin.demand: flow %d lists link %d twice" flow id);
      check_twice rest
  in
  check_twice links;
  { flow; weight; links; floor }

let epsilon = 1e-9

(* Refreshing a link re-sums its weight and subtracts in a different
   order than the arithmetic that produced its stale key, so the fresh
   key can land a few ulps below the stale one. Every stale entry within
   this relative margin past the saturation threshold is refreshed
   before the level is fixed. *)
let slack = 1e-9

(* Binary min-heap of link levels over parallel arrays (unboxed keys).
   An entry carries the link's stamp from when its key was computed;
   the stamp rises whenever a flow on the link freezes, so an entry is
   current exactly while the two stamps agree. Each link has at most
   one entry, so [n_links] slots suffice. *)
type heap = {
  mutable size : int;
  keys : float array;
  slots : int array;
  stamps : int array;
}

let heap_create n =
  { size = 0; keys = Array.make n 0.; slots = Array.make n 0; stamps = Array.make n 0 }

let heap_set h i ~key ~slot ~stamp =
  h.keys.(i) <- key;
  h.slots.(i) <- slot;
  h.stamps.(i) <- stamp

let heap_move h ~src ~dst =
  heap_set h dst ~key:h.keys.(src) ~slot:h.slots.(src) ~stamp:h.stamps.(src)

let heap_push h ~key ~slot ~stamp =
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && h.keys.((!i - 1) / 2) > key do
    let parent = (!i - 1) / 2 in
    heap_move h ~src:parent ~dst:!i;
    i := parent
  done;
  heap_set h !i ~key ~slot ~stamp

let heap_pop h =
  h.size <- h.size - 1;
  let n = h.size in
  if n > 0 then begin
    let key = h.keys.(n) and slot = h.slots.(n) and stamp = h.stamps.(n) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && h.keys.(l + 1) < h.keys.(l) then l + 1 else l in
        if h.keys.(c) < key then begin
          heap_move h ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    heap_set h !i ~key ~slot ~stamp
  end

let solve ~capacities ~demands =
  (* Dense link slots, in [capacities] order. *)
  let n_links = List.length capacities in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create (2 * n_links) in
  let link_id = Array.make n_links 0 in
  let residual = Array.make n_links 0. in
  List.iteri
    (fun s (id, c) ->
      if Float.is_nan c then
        invalid_arg (Printf.sprintf "Maxmin.solve: NaN capacity on link %d" id);
      if c <= 0. then invalid_arg "Maxmin.solve: non-positive capacity";
      if Hashtbl.mem slot_of id then
        invalid_arg (Printf.sprintf "Maxmin.solve: link %d listed twice" id);
      Hashtbl.replace slot_of id s;
      link_id.(s) <- id;
      residual.(s) <- c)
    capacities;
  let flows = Array.of_list demands in
  let n = Array.length flows in
  let seen : (int, unit) Hashtbl.t = Hashtbl.create n in
  (* Flow -> link slots (CSR, path order). *)
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun i d -> first.(i + 1) <- first.(i) + List.length d.links) flows;
  let path = Array.make first.(n) 0 in
  (* Active flows per link; every crossing flow is active at first. *)
  let active = Array.make n_links 0 in
  Array.iteri
    (fun i d ->
      if Hashtbl.mem seen d.flow then
        invalid_arg (Printf.sprintf "Maxmin.solve: flow %d listed twice" d.flow);
      Hashtbl.replace seen d.flow ();
      List.iteri
        (fun k id ->
          match Hashtbl.find_opt slot_of id with
          | Some s ->
            path.(first.(i) + k) <- s;
            active.(s) <- active.(s) + 1
          | None -> invalid_arg (Printf.sprintf "Maxmin.solve: unknown link %d" id))
        d.links)
    flows;
  (* Link slot -> flows (CSR, ascending demand index). *)
  let lfirst = Array.make (n_links + 1) 0 in
  for s = 0 to n_links - 1 do
    lfirst.(s + 1) <- lfirst.(s) + active.(s)
  done;
  let users = Array.make lfirst.(n_links) 0 in
  let fill = Array.sub lfirst 0 n_links in
  for i = 0 to n - 1 do
    for k = first.(i) to first.(i + 1) - 1 do
      let s = path.(k) in
      users.(fill.(s)) <- i;
      fill.(s) <- fill.(s) + 1
    done
  done;
  (* Grant contracted floors first; they must be admissible. Each link
     is charged in demand order, as every later level is. *)
  Array.iteri
    (fun i d ->
      for k = first.(i) to first.(i + 1) - 1 do
        let s = path.(k) in
        residual.(s) <- residual.(s) -. d.floor
      done)
    flows;
  Array.iteri
    (fun s c ->
      if c < -.epsilon then
        invalid_arg (Printf.sprintf "Maxmin.solve: floors oversubscribe link %d" link_id.(s)))
    residual;
  (* Progressive filling on the residual capacity. A link's level is its
     residual over the weight of its still-active flows; the smallest
     level is the next share, and every link within [epsilon] of it
     saturates, freezing the flows that cross it. *)
  let weight = Array.map (fun d -> d.weight) flows in
  let frozen = Array.make n false in
  let stamp = Array.make n_links 0 in
  (* The weight is re-summed over the active flows in demand order, not
     decremented, so it carries the same bits as a full rescan. *)
  let level s =
    let w = ref 0. in
    for k = lfirst.(s) to lfirst.(s + 1) - 1 do
      let i = users.(k) in
      if not frozen.(i) then w := !w +. weight.(i)
    done;
    Float.max 0. residual.(s) /. !w
  in
  let heap = heap_create n_links in
  for s = 0 to n_links - 1 do
    if active.(s) > 0 then heap_push heap ~key:(level s) ~slot:s ~stamp:0
  done;
  let alloc = Array.make n 0. in
  let batch = Array.make n 0 in
  let swept_slot = Array.make n_links 0 in
  let swept_key = Array.make n_links 0. in
  let unfrozen = ref n in
  while !unfrozen > 0 do
    (* Bring a current entry to the top. Keys only rise as flows freeze,
       so every other entry, stale or not, sits at or above it. *)
    let settled = ref false in
    while not !settled do
      let s = heap.slots.(0) in
      if active.(s) = 0 then heap_pop heap
      else if heap.stamps.(0) <> stamp.(s) then begin
        heap_pop heap;
        heap_push heap ~key:(level s) ~slot:s ~stamp:stamp.(s)
      end
      else settled := true
    done;
    (* Sweep every entry up to the threshold, refreshing stale ones; the
       share is the smallest key swept. *)
    let bound = (heap.keys.(0) +. epsilon) *. (1. +. slack) in
    let swept = ref 0 in
    let share = ref heap.keys.(0) in
    while heap.size > 0 && heap.keys.(0) <= bound do
      let s = heap.slots.(0) and key = heap.keys.(0) in
      let current = heap.stamps.(0) = stamp.(s) in
      heap_pop heap;
      if active.(s) > 0 then begin
        let key = if current then key else level s in
        swept_slot.(!swept) <- s;
        swept_key.(!swept) <- key;
        incr swept;
        if key < !share then share := key
      end
    done;
    let share = !share in
    (* Freeze every flow crossing a link that saturates at this level;
       the rest go back with their refreshed keys. *)
    let n_batch = ref 0 in
    for j = 0 to !swept - 1 do
      let s = swept_slot.(j) in
      if swept_key.(j) <= share +. epsilon then
        for k = lfirst.(s) to lfirst.(s + 1) - 1 do
          let i = users.(k) in
          if not frozen.(i) then begin
            frozen.(i) <- true;
            batch.(!n_batch) <- i;
            incr n_batch
          end
        done
      else heap_push heap ~key:swept_key.(j) ~slot:s ~stamp:stamp.(s)
    done;
    (* Charge the frozen flows in demand order, as a rescan would. *)
    let frozen_now = Array.sub batch 0 !n_batch in
    Array.sort Int.compare frozen_now;
    Array.iter
      (fun i ->
        let rate = weight.(i) *. share in
        alloc.(i) <- flows.(i).floor +. rate;
        for k = first.(i) to first.(i + 1) - 1 do
          let s = path.(k) in
          residual.(s) <- residual.(s) -. rate;
          active.(s) <- active.(s) - 1;
          stamp.(s) <- stamp.(s) + 1
        done)
      frozen_now;
    unfrozen := !unfrozen - !n_batch
  done;
  List.mapi (fun i d -> (d.flow, alloc.(i))) demands

let single_link_share ~capacity ~weights =
  let total = List.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Maxmin.single_link_share: no weight";
  capacity /. total
