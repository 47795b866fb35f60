(* Tests for the discrete-event engine and its support modules. *)

let check_float = Alcotest.(check (float 1e-9))

let check_float_eps eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Event_queue *)

(* The queue's one access pair, read as an option for the models: the
   minimum key from [next_time], then the payload from [pop_exn].
   Payloads carry their seq wherever a case checks it. *)
let pop_opt q =
  if Sim.Event_queue.is_empty q then None
  else
    let key = Sim.Event_queue.next_time q in
    Some (key, Sim.Event_queue.pop_exn q)

let test_queue_empty () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check bool) "empty" true (Sim.Event_queue.is_empty q);
  Alcotest.(check int) "length" 0 (Sim.Event_queue.length q);
  Alcotest.(check bool) "pop none" true (pop_opt q = None)

let drain_values q =
  let rec loop acc =
    match pop_opt q with
    | Some (_, v) -> loop (v :: acc)
    | None -> List.rev acc
  in
  loop []

let test_queue_orders_by_key () =
  let q = Sim.Event_queue.create () in
  List.iteri
    (fun i key -> Sim.Event_queue.add q ~key ~seq:i key)
    [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] (drain_values q)

let test_queue_fifo_on_ties () =
  let q = Sim.Event_queue.create () in
  for i = 1 to 5 do
    Sim.Event_queue.add q ~key:7. ~seq:i i
  done;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (drain_values q)

let test_queue_peek_matches_pop () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~key:2. ~seq:1 ("b", 1);
  Sim.Event_queue.add q ~key:1. ~seq:2 ("a", 2);
  check_float "peek key" 1. (Sim.Event_queue.next_time q);
  Alcotest.(check int) "peek does not remove" 2 (Sim.Event_queue.length q);
  Alcotest.(check (pair string int)) "pop takes the peeked entry" ("a", 2)
    (Sim.Event_queue.pop_exn q)

let test_queue_interleaved_grow () =
  (* Force several growth cycles with interleaved pops. *)
  let q = Sim.Event_queue.create () in
  let seq = ref 0 in
  for round = 0 to 9 do
    for i = 0 to 99 do
      incr seq;
      Sim.Event_queue.add q ~key:(float_of_int ((i * 31) mod 100)) ~seq:!seq round
    done;
    for _ = 0 to 49 do
      ignore (Sim.Event_queue.pop_exn q)
    done
  done;
  Alcotest.(check int) "length" 500 (Sim.Event_queue.length q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops keys in nondecreasing order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun keys ->
      let q = Sim.Event_queue.create () in
      List.iteri (fun i k -> Sim.Event_queue.add q ~key:k ~seq:i ()) keys;
      let rec drain last =
        match pop_opt q with
        | None -> true
        | Some (k, ()) -> k >= last && drain k
      in
      drain neg_infinity)

let prop_queue_preserves_multiset =
  QCheck.Test.make ~name:"event_queue preserves the multiset of keys" ~count:200
    QCheck.(list (float_bound_inclusive 100.))
    (fun keys ->
      let q = Sim.Event_queue.create () in
      List.iteri (fun i k -> Sim.Event_queue.add q ~key:k ~seq:i ()) keys;
      let rec drain acc =
        match pop_opt q with
        | None -> acc
        | Some (k, ()) -> drain (k :: acc)
      in
      List.sort Float.compare (drain []) = List.sort Float.compare keys)

(* The (key, seq)-sorted model list is the whole specification of the
   queue: pops come out exactly in that order. Small integer keys force
   plenty of ties, so the FIFO-among-equals leg is really exercised. *)
let by_key_seq (k1, s1) (k2, s2) =
  match compare k1 k2 with 0 -> compare s1 s2 | c -> c

let prop_queue_matches_sorted_model =
  QCheck.Test.make ~name:"event_queue pops exactly the (key, seq)-sorted model"
    ~count:300
    QCheck.(list (int_bound 20))
    (fun raw ->
      let entries = List.mapi (fun i k -> (float_of_int k, i)) raw in
      let q = Sim.Event_queue.create () in
      List.iter (fun (k, s) -> Sim.Event_queue.add q ~key:k ~seq:s s) entries;
      let rec drain acc =
        match pop_opt q with
        | None -> List.rev acc
        | Some (k, s) -> drain ((k, s) :: acc)
      in
      drain [] = List.sort by_key_seq entries)

let prop_queue_length_tracks_model =
  QCheck.Test.make
    ~name:"length/is_empty agree with a model list under interleaved add/pop"
    ~count:300
    QCheck.(list (option (int_bound 10)))
    (fun ops ->
      let q = Sim.Event_queue.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Some k ->
            incr seq;
            let key = float_of_int k in
            Sim.Event_queue.add q ~key ~seq:!seq !seq;
            model := (key, !seq) :: !model
          | None -> (
            let expected =
              match List.sort by_key_seq !model with [] -> None | e :: _ -> Some e
            in
            match (pop_opt q, expected) with
            | None, None -> ()
            | Some (k, s), Some e when (k, s) = e ->
              model := List.filter (fun x -> x <> e) !model
            | _ -> ok := false));
          if Sim.Event_queue.length q <> List.length !model then ok := false;
          if Sim.Event_queue.is_empty q <> (!model = []) then ok := false)
        ops;
      !ok)

(* The access pair: next_time is an infinity-sentinel peek, pop_exn
   returns the payload alone. *)
let test_queue_unboxed_api () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check bool)
    "next_time of empty is infinity" true
    (* lint: float-eq-ok -- infinity is the exact empty sentinel *)
    (Sim.Event_queue.next_time q = infinity);
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Event_queue.pop_exn: empty") (fun () ->
      ignore (Sim.Event_queue.pop_exn q));
  Sim.Event_queue.add q ~key:2. ~seq:1 "b";
  Sim.Event_queue.add q ~key:1. ~seq:2 "a";
  check_float "next_time is min key" 1. (Sim.Event_queue.next_time q);
  Alcotest.(check string) "pop_exn min payload" "a" (Sim.Event_queue.pop_exn q);
  check_float "next_time follows" 2. (Sim.Event_queue.next_time q);
  Alcotest.(check string) "pop_exn next" "b" (Sim.Event_queue.pop_exn q);
  Alcotest.(check bool)
    "drained back to infinity" true
    (* lint: float-eq-ok -- infinity is the exact empty sentinel *)
    (Sim.Event_queue.next_time q = infinity)

(* Payload slots are recycled through a free stack, so a long
   interleaving of adds, pops and clears must keep handing back the
   right payload: each payload is its own (key, seq), and every pop is
   checked against the head of the sorted model. Adds outnumber pops
   two to one, so a case grows through several capacity doublings
   before a rare clear pops everything, freeing every block, and
   growth restarts over recycled nodes. *)
type queue_op = Add of int | Pop | Clear

module Entries = Set.Make (struct
  type t = float * int

  let compare = by_key_seq
end)

let prop_queue_slab_recycling =
  let op =
    QCheck.Gen.(
      frequency
        [ (1000, map (fun k -> Add k) (int_bound 20)); (500, return Pop); (3, return Clear) ])
  in
  QCheck.Test.make ~name:"add/pop_exn/clear across doublings pop the sorted model"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 1500) op))
    (fun ops ->
      let q = Sim.Event_queue.create () in
      let model = ref Entries.empty in
      let seq = ref 0 in
      let step = function
        | Add k ->
          incr seq;
          let entry = (float_of_int k, !seq) in
          Sim.Event_queue.add q ~key:(fst entry) ~seq:!seq entry;
          model := Entries.add entry !model;
          true
        | Pop -> (
          match Entries.min_elt_opt !model with
          | None -> Sim.Event_queue.is_empty q
          | Some e ->
            model := Entries.remove e !model;
            (* lint: float-eq-ok -- the queue hands back the key it stored *)
            Sim.Event_queue.next_time q = fst e && Sim.Event_queue.pop_exn q = e)
        | Clear ->
          let drained = Entries.elements !model in
          model := Entries.empty;
          List.for_all (fun e -> Sim.Event_queue.pop_exn q = e) drained
          && Sim.Event_queue.is_empty q
      in
      List.for_all step ops
      && Sim.Event_queue.length q = Entries.cardinal !model
      && List.for_all (fun e -> Sim.Event_queue.pop_exn q = e) (Entries.elements !model)
      && Sim.Event_queue.is_empty q)

(* Steady state at a fixed capacity: once the slab has grown, an
   add/pop_exn pair stores ints and one payload and allocates nothing.
   The keys are literal constants, which are preallocated: a computed
   float passed to [add] across a module boundary is boxed by the
   caller's calling convention, which is not the queue's cost. *)
let key_of i = match i land 3 with 0 -> 1. | 1 -> 2. | 2 -> 3. | _ -> 4.

let test_queue_steady_state_allocates_nothing () =
  let q = Sim.Event_queue.create () in
  let noop () = () in
  for i = 0 to 999 do
    Sim.Event_queue.add q ~key:(key_of i) ~seq:i noop
  done;
  let before = Gc.minor_words () in
  for i = 1000 to 100_999 do
    let f = Sim.Event_queue.pop_exn q in
    Sim.Event_queue.add q ~key:(key_of i) ~seq:i f
  done;
  check_float "minor words over 10^5 pairs" 0. (Gc.minor_words () -. before);
  Alcotest.(check int) "length kept" 1000 (Sim.Event_queue.length q)

(* The slab stays within twice the peak of pending entries, whatever
   order the entries pop in. Direct adds open a block only when no block
   has a spare node, so at every doubling each direct block is full; a
   lane holds at most a partly popped and a partly filled block of 8
   nodes. A popped node that never became a spare, or a block never
   freed, would break the bound. *)
type slab_op = Slab_direct of int | Slab_laned of int | Slab_pop

let prop_queue_slab_bounded ~name ~laned =
  let op =
    QCheck.Gen.(
      frequency
        [
          ((if laned then 0 else 10), map (fun k -> Slab_direct k) (int_bound 1000));
          ((if laned then 10 else 0), map (fun d -> Slab_laned d) (int_bound 5));
          (9, return Slab_pop);
        ])
  in
  QCheck.Test.make ~name ~count:50
    (QCheck.make QCheck.Gen.(list_size (int_range 0 4000) op))
    (fun ops ->
      let q = Sim.Event_queue.create () in
      let seq = ref 0 and peak = ref 0 in
      List.for_all
        (fun o ->
          incr seq;
          (match o with
          | Slab_direct k -> Sim.Event_queue.add q ~key:(float_of_int k) ~seq:!seq ()
          | Slab_laned d ->
            (* Keyed [delay] after the clock, which only pops move, as
               the engine's lane entries are. *)
            Sim.Event_queue.add_delayed q ~delay:(float_of_int (d + 1)) ~seq:!seq ()
          | Slab_pop -> if not (Sim.Event_queue.is_empty q) then Sim.Event_queue.pop_exn q);
          peak := max !peak (Sim.Event_queue.length q);
          let slack = if laned then 2 * 8 * Sim.Event_queue.lanes q else 0 in
          Sim.Event_queue.capacity q <= max 64 (2 * (!peak + slack)))
        ops)

(* Lanes, driven as the engine drives them: time moves only through
   pops, which set the clock to the popped key, and through the clock
   advance, which moves it forward but never past the next pending key
   ([run_until] drains every event up to its limit first). A direct
   add lands at or after the clock, a lane add [delay] after it, so
   the model is a sorted set of (key, seq) entries and a clock
   computed with the same float arithmetic. Payloads are (key, seq,
   delay index); a clear pops every entry, leaving the lanes empty but
   in place. With [delays] above [max_lanes], late delays find no lane
   and fall back to the heap. *)
type lane_op = Direct of int | Laned of int * int | Lane_pop | Lane_clear

let prop_queue_lanes_match_model ~name ~delays ~max_ops ~clears =
  let op =
    QCheck.Gen.(
      frequency
        [
          (300, map (fun k -> Direct k) (int_bound 20));
          (700, map2 (fun d k -> Laned (d, k)) (int_bound (delays - 1)) (int_bound 3));
          (500, return Lane_pop);
          (clears, return Lane_clear);
        ])
  in
  QCheck.Test.make ~name ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 0 max_ops) op))
    (fun ops ->
      let q = Sim.Event_queue.create () in
      let clock = Sim.Event_queue.clock q in
      let model = ref Entries.empty and payload = Hashtbl.create 64 in
      let now = ref 0. and seq = ref 0 in
      let insert ~key ~lane =
        incr seq;
        let entry = (key, !seq) in
        model := Entries.add entry !model;
        Hashtbl.replace payload entry lane;
        (key, !seq, lane)
      in
      let step = function
        | Direct k ->
          let key, seq, _ = insert ~key:(!now +. float_of_int k) ~lane:(-1) in
          Sim.Event_queue.add q ~key ~seq (key, seq, -1);
          true
        | Laned (d, k) ->
          (* Advance by a quarter of [k], up to the next pending key. *)
          let target = !now +. (float_of_int k /. 4.) in
          (match Entries.min_elt_opt !model with
          | Some (next, _) when next < target -> ()
          | Some _ | None ->
            now := target;
            clock.Sim.Event_queue.time <- target);
          let delay = float_of_int d /. 8. in
          let key, seq, lane = insert ~key:(!now +. delay) ~lane:d in
          Sim.Event_queue.add_delayed q ~delay ~seq (key, seq, lane);
          true
        | Lane_pop -> (
          match Entries.min_elt_opt !model with
          | None -> Sim.Event_queue.is_empty q
          | Some ((key, seq) as e) ->
            model := Entries.remove e !model;
            let lane = Hashtbl.find payload e in
            now := key;
            (* lint: float-eq-ok -- the queue hands back the key it stored *)
            Sim.Event_queue.next_time q = key
            && Sim.Event_queue.pop_exn q = (key, seq, lane)
            (* lint: float-eq-ok -- the pop writes that key into the clock *)
            && clock.Sim.Event_queue.time = key)
        | Lane_clear ->
          let drained = Entries.elements !model in
          model := Entries.empty;
          List.iter (fun (key, _) -> now := key) drained;
          List.for_all
            (fun ((key, seq) as e) ->
              Sim.Event_queue.pop_exn q = (key, seq, Hashtbl.find payload e))
            drained
          && Sim.Event_queue.heap_length q = 0
      in
      List.for_all
        (fun o ->
          step o
          && Sim.Event_queue.length q = Entries.cardinal !model
          && Sim.Event_queue.heap_length q <= Sim.Event_queue.length q
          && Sim.Event_queue.lanes q <= Sim.Event_queue.max_lanes)
        ops
      && List.for_all
           (fun ((key, seq) as e) ->
             Sim.Event_queue.pop_exn q = (key, seq, Hashtbl.find payload e))
           (Entries.elements !model)
      && Sim.Event_queue.is_empty q)

(* A lane add is keyed on the clock, so only a clock moved back can
   put it before its lane's tail: the order check still rejects it. *)
let test_queue_lane_rejects_out_of_order () =
  let q = Sim.Event_queue.create () in
  let clock = Sim.Event_queue.clock q in
  clock.Sim.Event_queue.time <- 4.;
  Sim.Event_queue.add_delayed q ~delay:1. ~seq:2 "a";
  let rejected = Invalid_argument "Event_queue.add_delayed: key before the lane's tail" in
  clock.Sim.Event_queue.time <- 3.;
  Alcotest.check_raises "key before the tail" rejected (fun () ->
      Sim.Event_queue.add_delayed q ~delay:1. ~seq:3 "b");
  clock.Sim.Event_queue.time <- 4.;
  Alcotest.check_raises "equal key, earlier seq" rejected (fun () ->
      Sim.Event_queue.add_delayed q ~delay:1. ~seq:1 "b");
  Alcotest.(check int) "rejected adds leave the queue as it was" 1
    (Sim.Event_queue.length q);
  (* Another delay has a lane of its own, which takes any first key. *)
  clock.Sim.Event_queue.time <- 2.;
  Sim.Event_queue.add_delayed q ~delay:2. ~seq:4 "c";
  Alcotest.(check string) "other lane first" "c" (Sim.Event_queue.pop_exn q);
  check_float "the pop moves the clock" 4. clock.Sim.Event_queue.time;
  Alcotest.(check string) "then the tail" "a" (Sim.Event_queue.pop_exn q);
  check_float "to the tail's key" 5. clock.Sim.Event_queue.time;
  (* A drained lane has no tail left to order against. *)
  clock.Sim.Event_queue.time <- 0.;
  Sim.Event_queue.add_delayed q ~delay:1. ~seq:5 "d";
  check_float "drained lane restarts" 1. (Sim.Event_queue.next_time q);
  Alcotest.(check string) "with the new entry" "d" (Sim.Event_queue.pop_exn q)

(* Two entries per delay, for more delays than the cap: the first
   [max_lanes] delays keep one lane head each in the heap, the rest
   put both entries there, and the pops come out in order regardless.
   The clock moves to 0.5 between the two rounds, short of the first
   pending key. *)
let test_queue_lane_cap_falls_back_to_heap () =
  let q = Sim.Event_queue.create () in
  let extra = 88 in
  let n = Sim.Event_queue.max_lanes + extra in
  for i = 0 to n - 1 do
    Sim.Event_queue.add_delayed q ~delay:(float_of_int (i + 1)) ~seq:(2 * i) (2 * i)
  done;
  (Sim.Event_queue.clock q).Sim.Event_queue.time <- 0.5;
  for i = 0 to n - 1 do
    Sim.Event_queue.add_delayed q ~delay:(float_of_int (i + 1)) ~seq:((2 * i) + 1)
      ((2 * i) + 1)
  done;
  Alcotest.(check int) "lanes capped" Sim.Event_queue.max_lanes (Sim.Event_queue.lanes q);
  Alcotest.(check int) "every entry pending" (2 * n) (Sim.Event_queue.length q);
  Alcotest.(check int) "heap: one head per lane, both entries past the cap"
    (Sim.Event_queue.max_lanes + (2 * extra))
    (Sim.Event_queue.heap_length q);
  let popped = List.init (2 * n) (fun _ -> Sim.Event_queue.pop_exn q) in
  Alcotest.(check (list int)) "pops in (key, seq) order" (List.init (2 * n) Fun.id) popped;
  Alcotest.(check int) "lanes outlive their entries" Sim.Event_queue.max_lanes
    (Sim.Event_queue.lanes q)

(* Steady state with lanes, all keys equal so the order is FIFO by seq:
   four busy lanes, direct adds in the heap beside them, and a rare
   delay whose lane drains and refills. A lane add first sets the
   clock [delay] before 1., an unboxed store, so its key is exactly 1.
   like the direct adds'. A warm-up pass at the same mix grows every
   array first; literal delays and keys are preallocated. *)
let lane_delay_of i = match i land 3 with 0 -> 0.25 | 1 -> 0.5 | 2 -> 0.75 | _ -> 1.

let add_laned q ~delay i f =
  (Sim.Event_queue.clock q).Sim.Event_queue.time <- 1. -. delay;
  Sim.Event_queue.add_delayed q ~delay ~seq:i f

let add_mixed q i f =
  if i land 1023 = 0 then add_laned q ~delay:2. i f
  else if i land 7 = 7 then Sim.Event_queue.add q ~key:1. ~seq:i f
  else add_laned q ~delay:(lane_delay_of i) i f

let test_queue_lanes_steady_state_allocates_nothing () =
  let q = Sim.Event_queue.create () in
  let noop () = () in
  for i = 0 to 999 do
    add_mixed q i noop
  done;
  for i = 1000 to 20_999 do
    add_mixed q i (Sim.Event_queue.pop_exn q)
  done;
  let before = Gc.minor_words () in
  for i = 21_000 to 120_999 do
    add_mixed q i (Sim.Event_queue.pop_exn q)
  done;
  check_float "minor words over 10^5 laned pairs" 0. (Gc.minor_words () -. before);
  Alcotest.(check int) "length kept" 1000 (Sim.Event_queue.length q);
  Alcotest.(check int) "five lanes" 5 (Sim.Event_queue.lanes q);
  Alcotest.(check bool) "lane entries stay out of the heap" true
    (Sim.Event_queue.heap_length q < 200)

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_basic () =
  let r = Sim.Ring.create () in
  Alcotest.(check bool) "empty" true (Sim.Ring.is_empty r);
  Alcotest.(check int) "length" 0 (Sim.Ring.length r);
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Ring.pop_exn: empty") (fun () ->
      ignore (Sim.Ring.pop_exn r));
  Alcotest.check_raises "peek_exn on empty"
    (Invalid_argument "Ring.peek_exn: empty") (fun () ->
      ignore (Sim.Ring.peek_exn r));
  for i = 1 to 5 do
    Sim.Ring.push r i
  done;
  Alcotest.(check int) "length 5" 5 (Sim.Ring.length r);
  Alcotest.(check int) "peek oldest" 1 (Sim.Ring.peek_exn r);
  Alcotest.(check int) "pop oldest" 1 (Sim.Ring.pop_exn r);
  Alcotest.(check int) "peek next" 2 (Sim.Ring.peek_exn r)

let test_ring_wraparound_growth () =
  (* Interleave pushes and pops so the live window straddles the end
     of the backing array when growth happens. *)
  let r = Sim.Ring.create () in
  let popped = ref [] in
  let next = ref 0 in
  for round = 1 to 50 do
    for _ = 1 to round do
      incr next;
      Sim.Ring.push r !next
    done;
    for _ = 1 to round / 2 do
      popped := Sim.Ring.pop_exn r :: !popped
    done
  done;
  while not (Sim.Ring.is_empty r) do
    popped := Sim.Ring.pop_exn r :: !popped
  done;
  Alcotest.(check (list int))
    "FIFO across growth and wraparound"
    (List.init !next (fun i -> i + 1))
    (List.rev !popped)

(* Model test against the stdlib queue ([Stdlib.Queue] is the reference
   implementation here in test/; lint rule L6 bans it from the lib/net
   and lib/sim hot paths that [Sim.Ring] replaced it in). *)
let prop_ring_matches_stdlib_queue =
  QCheck.Test.make ~name:"ring behaves exactly like a Stdlib.Queue model"
    ~count:300
    (* ops: Some n = push n, None = pop-or-peek on alternating steps.
       [drains] salts a handful of steps into the sequence that pop the
       ring empty against the model (Link.reset empties its queues that
       way, so the model must keep matching across it — including
       wrap-around state left by earlier pops). *)
    QCheck.(pair (list (option (int_bound 100))) (small_list small_nat))
    (fun (ops, drains) ->
      let r = Sim.Ring.create () in
      let model = Queue.create () in
      let ok = ref true in
      let step = ref 0 in
      let n_ops = List.length ops in
      let drain_steps =
        List.filter_map
          (fun c -> if n_ops = 0 then None else Some (c mod n_ops))
          drains
      in
      List.iter
        (fun op ->
          incr step;
          (match op with
          | Some n ->
            Sim.Ring.push r n;
            Queue.push n model
          | None when !step land 1 = 0 -> (
            match Queue.take_opt model with
            | None ->
              if not (Sim.Ring.is_empty r) then ok := false
            | Some expected ->
              if Sim.Ring.pop_exn r <> expected then ok := false)
          | None -> (
            match Queue.peek_opt model with
            | None ->
              if not (Sim.Ring.is_empty r) then ok := false
            | Some expected ->
              if Sim.Ring.peek_exn r <> expected then ok := false));
          if List.mem (!step - 1) drain_steps then
            while not (Queue.is_empty model) do
              if Sim.Ring.pop_exn r <> Queue.pop model then ok := false
            done;
          if Sim.Ring.length r <> Queue.length model then ok := false;
          if Sim.Ring.is_empty r <> Queue.is_empty model then ok := false)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_runs_in_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.Engine.now e) :: !log in
  Sim.Engine.schedule e ~delay:2. (note "b");
  Sim.Engine.schedule e ~delay:1. (note "a");
  Sim.Engine.schedule e ~delay:3. (note "c");
  Sim.Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and clock" [ ("a", 1.); ("b", 2.); ("c", 3.) ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.schedule e ~delay:1. (fun () ->
      fired := "outer" :: !fired;
      Sim.Engine.schedule e ~delay:0.5 (fun () -> fired := "inner" :: !fired));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !fired);
  check_float "clock at end" 1.5 (Sim.Engine.now e)

(* Only a recurrence has a handle: one cancelled before its first
   firing runs nothing, and its pending firing is not re-armed. *)
let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.every e ~period:1. (fun () -> fired := true) in
  Sim.Engine.cancel h;
  Sim.Engine.cancel h;
  Sim.Engine.run e;
  Alcotest.(check bool) "did not fire" false !fired;
  Alcotest.(check int) "not re-armed" 0 (Sim.Engine.pending e)

let test_engine_cancel_from_event () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.every e ~start:2. ~period:1. (fun () -> fired := true) in
  Sim.Engine.schedule e ~delay:1. (fun () -> Sim.Engine.cancel h);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled mid-run" false !fired

let test_engine_every () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  let h = Sim.Engine.every e ~period:1. (fun () -> times := Sim.Engine.now e :: !times) in
  Sim.Engine.schedule e ~delay:3.5 (fun () -> Sim.Engine.cancel h);
  Sim.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "three ticks" [ 1.; 2.; 3. ] (List.rev !times)

let test_engine_every_start () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  let h =
    Sim.Engine.every e ~start:0.25 ~period:0.5 (fun () ->
        times := Sim.Engine.now e :: !times)
  in
  Sim.Engine.run_until e 1.6;
  Sim.Engine.cancel h;
  Alcotest.(check (list (float 1e-9)))
    "phase-shifted ticks" [ 0.25; 0.75; 1.25 ] (List.rev !times)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  ignore (Sim.Engine.every e ~period:1. (fun () -> incr count));
  Sim.Engine.run_until e 5.5;
  Alcotest.(check int) "five ticks" 5 !count;
  check_float "clock advanced to limit" 5.5 (Sim.Engine.now e);
  Sim.Engine.run_until e 7.;
  Alcotest.(check int) "two more" 7 !count

let test_engine_rejects_bad_times () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Sim.Engine.schedule e ~delay:(-1.) (fun () -> ()));
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Engine.schedule: time not finite") (fun () ->
      Sim.Engine.schedule e ~delay:nan (fun () -> ()));
  Alcotest.check_raises "infinite delay"
    (Invalid_argument "Engine.schedule: time not finite") (fun () ->
      Sim.Engine.schedule e ~delay:infinity (fun () -> ()));
  Alcotest.check_raises "minus infinity"
    (Invalid_argument "Engine.schedule: time not finite") (fun () ->
      Sim.Engine.schedule e ~delay:neg_infinity (fun () -> ()));
  Sim.Engine.schedule e ~delay:1. (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Sim.Engine.schedule_at e ~time:0.5 (fun () -> ()));
  Alcotest.check_raises "bad period"
    (Invalid_argument "Engine.every: period must be positive") (fun () ->
      ignore (Sim.Engine.every e ~period:0. (fun () -> ())));
  Alcotest.check_raises "nan limit" (Invalid_argument "Engine.run_until: limit is NaN")
    (fun () -> Sim.Engine.run_until e nan);
  (* An infinite limit stays legal: it drains the queue. *)
  let fired = ref false in
  Sim.Engine.schedule e ~delay:1. (fun () -> fired := true);
  Sim.Engine.run_until e infinity;
  Alcotest.(check bool) "infinite limit drains" true !fired;
  Alcotest.(check int) "nothing pending" 0 (Sim.Engine.pending e)

(* Regression: [every ?start] used to push the first firing without any
   validation, so a NaN or in-the-past start silently corrupted the
   queue where [schedule_at] would have raised. *)
let test_engine_every_validates_start () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:1. (fun () -> ());
  Sim.Engine.run e;
  Alcotest.check_raises "start in the past"
    (Invalid_argument "Engine.every: start in the past") (fun () ->
      ignore (Sim.Engine.every e ~start:0.5 ~period:1. (fun () -> ())));
  Alcotest.check_raises "nan start"
    (Invalid_argument "Engine.every: time not finite") (fun () ->
      ignore (Sim.Engine.every e ~start:nan ~period:1. (fun () -> ())));
  Alcotest.check_raises "infinite start"
    (Invalid_argument "Engine.every: time not finite") (fun () ->
      ignore (Sim.Engine.every e ~start:infinity ~period:1. (fun () -> ())));
  Alcotest.check_raises "nan period"
    (Invalid_argument "Engine.every: time not finite") (fun () ->
      ignore (Sim.Engine.every e ~period:nan (fun () -> ())));
  (* A start exactly at the current clock is valid (fires immediately). *)
  let fired = ref 0 in
  let h =
    Sim.Engine.every e ~start:(Sim.Engine.now e) ~period:1. (fun () ->
        incr fired)
  in
  Sim.Engine.run_until e (Sim.Engine.now e +. 1.5);
  Sim.Engine.cancel h;
  Alcotest.(check int) "start = now fires at now and now + period" 2 !fired

(* Relative and absolute one-shots interleave in (time, seq) order,
   and once the queue has grown, scheduling a persistent closure and
   firing it allocates nothing, in dune's dev profile too ([-opaque]):
   the queue keys a lane add on the clock it keeps and writes the
   popped time into it, so no float crosses a module boundary. *)
let test_engine_schedule_and_schedule_at () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:2. (fun () -> log := "b" :: !log);
  Sim.Engine.schedule e ~delay:1. (fun () -> log := "a" :: !log);
  Sim.Engine.schedule_at e ~time:1.5 (fun () -> log := "c" :: !log);
  Sim.Engine.schedule_at e ~time:1. (fun () -> log := "a2" :: !log);
  Alcotest.check_raises "nan time"
    (Invalid_argument "Engine.schedule_at: time not finite") (fun () ->
      Sim.Engine.schedule_at e ~time:nan (fun () -> ()));
  Sim.Engine.run_until e 1.;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Sim.Engine.schedule_at e ~time:0.5 (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "fires in (time, seq) order" [ "a"; "a2"; "c"; "b" ] (List.rev !log);
  check_float "clock" 2. (Sim.Engine.now e);
  let noop () = () in
  for _ = 1 to 1000 do
    Sim.Engine.schedule e ~delay:1. noop
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sim.Engine.step e);
    Sim.Engine.schedule e ~delay:1. noop
  done;
  let per_pair = (Gc.minor_words () -. before) /. 10_000. in
  check_float "minor words per schedule/step pair" 0. per_pair

(* The clock the engine shares with its queue: inside an event it reads
   the event's time, [run_until] past the last event advances it to
   the limit, and an event found behind it (only a clock moved by hand
   can do that) fails the audit this suite turns on. *)
let test_engine_clock () =
  let e = Sim.Engine.create () in
  let clock = Sim.Engine.clock e in
  let seen = ref [] in
  let note () = seen := (Sim.Engine.now e, clock.Sim.Engine.time) :: !seen in
  Sim.Engine.schedule e ~delay:1.25 note;
  Sim.Engine.schedule_at e ~time:0.5 note;
  ignore (Sim.Engine.every e ~start:2. ~period:1. note);
  Sim.Engine.run_until e 3.75;
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "now inside an event is its time"
    [ (0.5, 0.5); (1.25, 1.25); (2., 2.); (3., 3.) ]
    (List.rev !seen);
  check_float "run_until advances the clock past the last event" 3.75 clock.Sim.Engine.time;
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:1. ignore;
  Sim.Engine.run_until e 10.;
  check_float "an empty queue still advances" 10. (Sim.Engine.now e);
  Sim.Engine.run_until e 4.;
  check_float "an earlier limit leaves the clock" 10. (Sim.Engine.now e);
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:1. ignore;
  (Sim.Engine.clock e :> Sim.Event_queue.clock).Sim.Event_queue.time <- 5.;
  match Sim.Engine.step e with
  | exception Sim.Invariant.Violation msg ->
    Alcotest.(check string) "behind the clock"
      "Engine: event time behind the clock (time must be monotone)" msg
  | _ -> Alcotest.fail "an event behind the clock passed the audit"

(* [now +. delay] overflows to infinity with both terms finite: the
   event is rejected, not queued at an infinite time. *)
let test_engine_schedule_rejects_overflow () =
  let e = Sim.Engine.create () in
  Sim.Engine.run_until e Float.max_float;
  Alcotest.check_raises "now + delay overflows"
    (Invalid_argument "Engine.schedule: time not finite") (fun () ->
      Sim.Engine.schedule e ~delay:Float.max_float (fun () -> ()));
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending e);
  Sim.Engine.schedule e ~delay:0. (fun () -> ());
  Alcotest.(check int) "a zero delay still fits" 1 (Sim.Engine.pending e)

let test_engine_pending () =
  let e = Sim.Engine.create () in
  Alcotest.(check int) "initially empty" 0 (Sim.Engine.pending e);
  Sim.Engine.schedule e ~delay:1. (fun () -> ());
  Sim.Engine.schedule e ~delay:2. (fun () -> ());
  Alcotest.(check int) "two pending" 2 (Sim.Engine.pending e);
  ignore (Sim.Engine.step e);
  Alcotest.(check int) "one left" 1 (Sim.Engine.pending e)

let test_engine_simultaneous_fifo () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 4 do
    Sim.Engine.schedule e ~delay:1. (fun () -> log := i :: !log)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo among equals" [ 1; 2; 3; 4 ] (List.rev !log)

(* The engine against a reference scheduler written out in full: a
   (time, seq)-sorted list of pending actions, the engine's time
   arithmetic ([now +. delay]) and the cancellation semantics of a
   recurrence (a cancelled firing still pops, does nothing and is not
   re-armed). Whatever the lanes do, both must fire the same events at
   the same times in the same order. *)
module Reference = struct
  type t = {
    mutable now : float;
    mutable seq : int;
    mutable pending : (float * int * (unit -> unit)) list;
  }

  let create () = { now = 0.; seq = 0; pending = [] }

  let push t time f =
    t.seq <- t.seq + 1;
    let key = (time, t.seq) in
    let rec insert = function
      | ((time', seq', _) as e) :: rest when by_key_seq (time', seq') key < 0 ->
        e :: insert rest
      | rest -> (time, t.seq, f) :: rest
    in
    t.pending <- insert t.pending

  let rec run_until t limit =
    match t.pending with
    | (time, _, f) :: rest when time <= limit ->
      t.pending <- rest;
      t.now <- time;
      f ();
      run_until t limit
    | _ -> if limit > t.now then t.now <- limit
end

(* What an event program needs from a scheduler; a recurrence returns
   its cancel function. *)
type scheduler = {
  now : unit -> float;
  after : float -> (unit -> unit) -> unit;
  at : float -> (unit -> unit) -> unit;
  every : float option -> float -> (unit -> unit) -> unit -> unit;
  run_until : float -> unit;
}

let engine_scheduler e =
  {
    now = (fun () -> Sim.Engine.now e);
    after = (fun delay f -> Sim.Engine.schedule e ~delay f);
    at = (fun time f -> Sim.Engine.schedule_at e ~time f);
    every =
      (fun start period f ->
        let h = Sim.Engine.every e ?start ~period f in
        fun () -> Sim.Engine.cancel h);
    run_until = Sim.Engine.run_until e;
  }

let reference_scheduler () =
  let r = Reference.create () in
  let every start period f =
    let cancelled = ref false in
    let rec fire () =
      if not !cancelled then begin
        f ();
        if not !cancelled then Reference.push r (r.Reference.now +. period) fire
      end
    in
    Reference.push r (match start with Some s -> s | None -> r.Reference.now +. period) fire;
    fun () -> cancelled := true
  in
  {
    now = (fun () -> r.Reference.now);
    after = (fun delay f -> Reference.push r (r.Reference.now +. delay) f);
    at = Reference.push r;
    every;
    run_until = Reference.run_until r;
  }

(* An event program: a cyclic list of instructions. Every fired event
   logs itself and runs the next two instructions, so schedules nest;
   twenty instructions seed the run, which stops scheduling after
   [budget] events and ends at [horizon]. [At] takes an offset from
   now, [Every] an optional start offset, a period and the firings
   after which it cancels itself; [Cancel] cancels the latest
   recurrence still on the stack. *)
type instr = After of float | At of float | Every of float option * float * int | Cancel

let run_program s prog ~budget ~horizon =
  let log = ref [] and scheduled = ref 0 and cursor = ref 0 in
  let cancels = ref [] and delays = Hashtbl.create 64 in
  let relative d = Hashtbl.replace delays d () in
  let rec step () =
    if !scheduled < budget then begin
      let instr = prog.(!cursor mod Array.length prog) in
      incr cursor;
      match instr with
      | Cancel -> (
        match !cancels with
        | c :: rest ->
          c ();
          cancels := rest
        | [] -> ())
      | After d ->
        relative d;
        s.after d (event (fresh ()))
      | At offset -> s.at (s.now () +. offset) (event (fresh ()))
      | Every (start, period, firings) ->
        relative period;
        let id = fresh () and fired = ref 0 and cancel = ref ignore in
        cancel :=
          s.every
            (Option.map (fun o -> s.now () +. o) start)
            period
            (fun () ->
              incr fired;
              log := (s.now (), id, !fired) :: !log;
              if !fired >= firings then !cancel () else step ());
        cancels := !cancel :: !cancels
    end
  and fresh () =
    incr scheduled;
    !scheduled
  and event id () =
    log := (s.now (), id, 0) :: !log;
    step ();
    step ()
  in
  for _ = 1 to 20 do
    step ()
  done;
  s.run_until horizon;
  (List.rev !log, Hashtbl.length delays)

let instr_gen delays =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> After d) delays);
        (1, map (fun o -> At o) (float_range 0. 4.));
        ( 1,
          map3
            (fun start period n -> Every (start, (if period > 0. then period else 0.5), n))
            (opt (float_range 0. 2.))
            delays (int_range 1 6) );
        (1, return Cancel);
      ])

(* Each case runs the program on a fresh engine and on the
   reference. *)
let prop_engine_matches_reference ~name ~count ~delays ~length ~budget ~min_delays =
  QCheck.Test.make ~name ~count
    (QCheck.make QCheck.Gen.(array_size length (instr_gen delays)))
    (fun prog ->
      let run s = run_program s prog ~budget ~horizon:40. in
      let expected, distinct = run (reference_scheduler ()) in
      let fresh, _ = run (engine_scheduler (Sim.Engine.create ())) in
      let diverges what log =
        let rec first i = function
          | a :: r, b :: r' -> if a = b then first (i + 1) (r, r') else i
          | _ -> i
        in
        QCheck.Test.fail_reportf "%s: %d events against %d, first difference at %d" what
          (List.length log) (List.length expected) (first 0 (log, expected))
      in
      if distinct < min_delays then
        QCheck.Test.fail_reportf "only %d distinct relative delays" distinct
      else if fresh <> expected then diverges "fresh engine" fresh
      else true)

let small_delays = QCheck.Gen.oneofl [ 0.; 0.125; 0.25; 0.5; 1.; 1.5; 3. ]

let prop_engine_lanes_match_reference =
  prop_engine_matches_reference
    ~name:"engine fires like the reference: small delay set and continuous delays"
    ~count:100
    ~delays:QCheck.Gen.(frequency [ (3, small_delays); (1, float_range 0. 4.) ])
    ~length:QCheck.Gen.(int_range 1 60)
    ~budget:1500 ~min_delays:0

(* Delays from 4000 values: more distinct delays than the lane cap, so
   late ones go to the heap beside the lanes. *)
let prop_engine_past_lane_cap_matches_reference =
  prop_engine_matches_reference
    ~name:"engine fires like the reference with more delays than lanes" ~count:10
    ~delays:QCheck.Gen.(map (fun k -> float_of_int k *. 0.001) (int_bound 3999))
    ~length:QCheck.Gen.(int_range 1200 1500)
    ~budget:3000 ~min_delays:(Sim.Event_queue.max_lanes + 1)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 123 and b = Sim.Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_split_independent () =
  let parent = Sim.Rng.create 7 in
  let child = Sim.Rng.split parent in
  (* Drawing from the child must not change the parent's future. *)
  let parent2 = Sim.Rng.create 7 in
  let _ = Sim.Rng.split parent2 in
  for _ = 1 to 8 do
    ignore (Sim.Rng.bits64 child)
  done;
  for _ = 1 to 8 do
    Alcotest.(check int64) "parent unaffected" (Sim.Rng.bits64 parent2)
      (Sim.Rng.bits64 parent)
  done

let draws rng n = List.init n (fun _ -> Sim.Rng.bits64 rng)

let test_rng_stream_is_pure () =
  (* Deriving a stream must not advance the parent, and the derivation
     must depend only on (parent state, index) — not on which other
     streams were derived or drawn from in between. *)
  let r = Sim.Rng.create 5 in
  let before = Sim.Rng.stream r 3 in
  ignore (draws (Sim.Rng.stream r 1) 8);
  ignore (Sim.Rng.stream r 7);
  let after = Sim.Rng.stream r 3 in
  Alcotest.(check (list int64)) "order-independent derivation"
    (draws before 32) (draws after 32);
  let untouched = Sim.Rng.create 5 in
  Alcotest.(check int64) "parent unaffected" (Sim.Rng.bits64 untouched)
    (Sim.Rng.bits64 r)

let prop_rng_scenario_replays =
  QCheck.Test.make
    ~name:"the same (seed, scenario id) replays the same 1k-draw stream"
    ~count:50
    QCheck.(pair small_nat small_printable_string)
    (fun (seed, id) ->
      draws (Sim.Rng.scenario ~seed ~id) 1000
      = draws (Sim.Rng.scenario ~seed ~id) 1000)

let prop_rng_scenario_streams_disjoint =
  QCheck.Test.make
    ~name:"distinct (seed, scenario id) streams share no draw in 1k"
    ~count:100
    QCheck.(
      pair
        (pair small_nat small_printable_string)
        (pair small_nat small_printable_string))
    (fun (((seed_a, id_a) as a), ((seed_b, id_b) as b)) ->
      QCheck.assume (a <> b);
      let da = draws (Sim.Rng.scenario ~seed:seed_a ~id:id_a) 1000 in
      let db = draws (Sim.Rng.scenario ~seed:seed_b ~id:id_b) 1000 in
      (* Element-wise disjointness over the whole prefix — much stronger
         than mere inequality; a lattice structure between streams (the
         classic splitmix pitfall) would show up here. *)
      let seen = Hashtbl.create 2048 in
      List.iter (fun x -> Hashtbl.replace seen x ()) da;
      not (List.exists (Hashtbl.mem seen) db))

let prop_rng_sibling_streams_disjoint =
  QCheck.Test.make
    ~name:"sibling indexed streams of one parent share no draw in 1k"
    ~count:50
    QCheck.(triple small_nat (int_bound 100) (int_bound 100))
    (fun (seed, i, j) ->
      QCheck.assume (i <> j);
      let r = Sim.Rng.create seed in
      let da = draws (Sim.Rng.stream r i) 1000 in
      let db = draws (Sim.Rng.stream r j) 1000 in
      let seen = Hashtbl.create 2048 in
      List.iter (fun x -> Hashtbl.replace seen x ()) da;
      not (List.exists (Hashtbl.mem seen) db))

(* Sampler properties (churn extension): the arrival process leans on
   exactly these three guarantees — calibrated means, replay across
   [split], and the advertised tail index. *)
let prop_sampler_means_converge =
  QCheck.Test.make
    ~name:"exponential and Pareto sample means converge to ~mean" ~count:20
    QCheck.(pair small_nat (float_range 0.2 5.))
    (fun (seed, mean) ->
      let n = 20_000 in
      let avg draw =
        let r = Sim.Rng.create seed in
        let sum = ref 0. in
        for _ = 1 to n do
          sum := !sum +. draw r
        done;
        !sum /. float_of_int n
      in
      let exp_mean = avg (fun r -> Sim.Rng.exponential r ~mean) in
      (* Shape 2.5 keeps the variance finite, so 20k draws settle well
         inside 15%; lighter tolerances would flake on heavy tails. *)
      let par_mean = avg (fun r -> Sim.Rng.pareto r ~shape:2.5 ~mean) in
      Float.abs (exp_mean -. mean) <= 0.1 *. mean
      && Float.abs (par_mean -. mean) <= 0.15 *. mean)

let prop_sampler_split_determinism =
  QCheck.Test.make
    ~name:"sampler draws replay identically across Rng.split" ~count:100
    QCheck.(pair small_nat (float_range 0.5 3.))
    (fun (seed, mean) ->
      let stream () =
        let child = Sim.Rng.split (Sim.Rng.create seed) in
        List.init 100 (fun i ->
            if i mod 2 = 0 then Sim.Rng.exponential child ~mean
            else Sim.Rng.pareto child ~shape:1.8 ~mean)
      in
      stream () = stream ())

let prop_pareto_tail_index =
  QCheck.Test.make
    ~name:"Pareto empirical tail index matches the requested shape"
    ~count:15
    QCheck.(pair small_nat (float_range 1.5 3.))
    (fun (seed, shape) ->
      let n = 50_000 and mean = 1. and c = 4. in
      let scale = mean *. (shape -. 1.) /. shape in
      let r = Sim.Rng.create seed in
      let exceed = ref 0 in
      for _ = 1 to n do
        if Sim.Rng.pareto r ~shape ~mean > c *. scale then incr exceed
      done;
      (* Survival at [c] times the scale is exactly [c ** -shape];
         inverting the empirical fraction recovers the tail index. *)
      let frac = float_of_int !exceed /. float_of_int n in
      frac > 0. && Float.abs ((-.log frac /. log c) -. shape) <= 0.2)

let test_rng_int_bounds () =
  let r = Sim.Rng.create 99 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of range"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int r 0))

let test_rng_int_covers_range () =
  let r = Sim.Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Sim.Rng.int r 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_unit () =
  let r = Sim.Rng.create 11 in
  let sum = ref 0. in
  let n = 20_000 in
  for _ = 1 to n do
    let v = Sim.Rng.float r 1. in
    if v < 0. || v >= 1. then Alcotest.fail "float out of [0,1)";
    sum := !sum +. v
  done;
  check_float_eps 0.02 "mean near 1/2" 0.5 (!sum /. float_of_int n)

let test_rng_bernoulli () =
  let r = Sim.Rng.create 13 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Sim.Rng.bernoulli r 0.3 then incr hits
  done;
  check_float_eps 0.02 "p estimate" 0.3 (float_of_int !hits /. float_of_int n);
  Alcotest.(check bool) "p=1 always" true (Sim.Rng.bernoulli r 1.);
  Alcotest.(check bool) "p=0 never" false (Sim.Rng.bernoulli r 0.)

let test_rng_exponential_mean () =
  let r = Sim.Rng.create 17 in
  let sum = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Sim.Rng.exponential r ~mean:2. in
    if v < 0. then Alcotest.fail "negative exponential";
    sum := !sum +. v
  done;
  check_float_eps 0.1 "mean near 2" 2. (!sum /. float_of_int n)

let test_rng_pareto () =
  let r = Sim.Rng.create 19 in
  let sum = ref 0. in
  let n = 100_000 in
  let scale = 2. *. (2.5 -. 1.) /. 2.5 in
  for _ = 1 to n do
    let v = Sim.Rng.pareto r ~shape:2.5 ~mean:2. in
    if v < scale -. 1e-9 then Alcotest.fail "below scale";
    sum := !sum +. v
  done;
  check_float_eps 0.1 "mean near 2" 2. (!sum /. float_of_int n);
  Alcotest.check_raises "shape 1" (Invalid_argument "Rng.pareto: shape must exceed 1")
    (fun () -> ignore (Sim.Rng.pareto r ~shape:1. ~mean:1.))

let test_rng_shuffle_permutation () =
  let r = Sim.Rng.create 23 in
  let a = Array.init 20 Fun.id in
  Sim.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_time_weighted_constant () =
  let tw = Sim.Stats.Time_weighted.create ~now:0. ~init:3. in
  check_float "average of constant" 3. (Sim.Stats.Time_weighted.average tw ~now:10.)

let test_time_weighted_step () =
  let tw = Sim.Stats.Time_weighted.create ~now:0. ~init:0. in
  Sim.Stats.Time_weighted.set tw ~now:5. 10.;
  (* 0 for 5 s then 10 for 5 s -> average 5 *)
  check_float "step average" 5. (Sim.Stats.Time_weighted.average tw ~now:10.)

let test_time_weighted_reset () =
  let tw = Sim.Stats.Time_weighted.create ~now:0. ~init:4. in
  Sim.Stats.Time_weighted.set tw ~now:2. 8.;
  Sim.Stats.Time_weighted.reset tw ~now:4.;
  (* After reset only the post-reset window counts; value carried over. *)
  check_float "value carries over" 8. (Sim.Stats.Time_weighted.value tw);
  check_float "fresh window" 8. (Sim.Stats.Time_weighted.average tw ~now:6.)

let test_time_weighted_empty_window () =
  let tw = Sim.Stats.Time_weighted.create ~now:1. ~init:7. in
  check_float "zero-length window returns value" 7.
    (Sim.Stats.Time_weighted.average tw ~now:1.)

let test_time_weighted_rejects_backwards () =
  let tw = Sim.Stats.Time_weighted.create ~now:5. ~init:0. in
  Alcotest.check_raises "backwards"
    (Invalid_argument "Time_weighted.set: time went backwards") (fun () ->
      Sim.Stats.Time_weighted.set tw ~now:4. 1.)

let test_ewma_first_sample () =
  let e = Sim.Stats.Ewma.create ~gain:0.5 in
  Alcotest.(check bool) "not initialized" false (Sim.Stats.Ewma.is_initialized e);
  Sim.Stats.Ewma.update e 10.;
  check_float "first sample initializes" 10. (Sim.Stats.Ewma.value e)

let test_ewma_converges () =
  let e = Sim.Stats.Ewma.create ~gain:0.5 in
  Sim.Stats.Ewma.update e 0.;
  for _ = 1 to 30 do
    Sim.Stats.Ewma.update e 100.
  done;
  check_float_eps 0.01 "converged" 100. (Sim.Stats.Ewma.value e)

let test_ewma_formula () =
  let e = Sim.Stats.Ewma.create ~gain:0.25 in
  Sim.Stats.Ewma.update e 8.;
  Sim.Stats.Ewma.update e 0.;
  check_float "one step: 8 + 0.25*(0-8)" 6. (Sim.Stats.Ewma.value e)

let test_ewma_rejects_bad_gain () =
  Alcotest.check_raises "gain 0" (Invalid_argument "Ewma.create: gain out of (0, 1]")
    (fun () -> ignore (Sim.Stats.Ewma.create ~gain:0.));
  Alcotest.check_raises "gain 2" (Invalid_argument "Ewma.create: gain out of (0, 1]")
    (fun () -> ignore (Sim.Stats.Ewma.create ~gain:2.))

let test_welford () =
  let w = Sim.Stats.Welford.create () in
  List.iter (Sim.Stats.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Sim.Stats.Welford.count w);
  check_float "mean" 5. (Sim.Stats.Welford.mean w);
  check_float_eps 1e-9 "sample variance" (32. /. 7.) (Sim.Stats.Welford.variance w)

let test_welford_degenerate () =
  let w = Sim.Stats.Welford.create () in
  check_float "variance of empty" 0. (Sim.Stats.Welford.variance w);
  Sim.Stats.Welford.add w 5.;
  check_float "variance of singleton" 0. (Sim.Stats.Welford.variance w)

let prop_welford_mean_matches_naive =
  QCheck.Test.make ~name:"welford mean equals naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.))
    (fun xs ->
      let w = Sim.Stats.Welford.create () in
      List.iter (Sim.Stats.Welford.add w) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Sim.Stats.Welford.mean w -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Timeseries *)

let make_series points =
  let ts = Sim.Timeseries.create () in
  List.iter (fun (t, v) -> Sim.Timeseries.add ts t v) points;
  ts

let test_timeseries_basic () =
  let ts = make_series [ (0., 1.); (1., 2.); (2., 3.) ] in
  Alcotest.(check int) "length" 3 (Sim.Timeseries.length ts);
  Alcotest.(check bool) "last" true (Sim.Timeseries.last ts = Some (2., 3.))

let test_timeseries_window_mean () =
  let ts = make_series [ (0., 10.); (1., 20.); (2., 30.); (3., 40.) ] in
  (match Sim.Timeseries.window_mean ts ~from:1. ~until:2. with
  | Some m -> check_float "mean of middle" 25. m
  | None -> Alcotest.fail "expected mean");
  Alcotest.(check bool) "empty window" true
    (Sim.Timeseries.window_mean ts ~from:10. ~until:20. = None)

let test_timeseries_value_at () =
  let ts = make_series [ (1., 10.); (2., 20.); (4., 40.) ] in
  Alcotest.(check bool) "before first" true (Sim.Timeseries.value_at ts 0.5 = None);
  Alcotest.(check bool) "exact" true (Sim.Timeseries.value_at ts 2. = Some 20.);
  Alcotest.(check bool) "between" true (Sim.Timeseries.value_at ts 3. = Some 20.);
  Alcotest.(check bool) "after last" true (Sim.Timeseries.value_at ts 9. = Some 40.)

let test_timeseries_smooth () =
  let ts = make_series [ (0., 0.); (1., 10.); (2., 20.); (3., 30.) ] in
  let s = Sim.Timeseries.smooth ts ~window:1.5 in
  let arr = Sim.Timeseries.to_array s in
  check_float "first sample unchanged" 0. (snd arr.(0));
  check_float "trailing mean of two" 5. (snd arr.(1));
  check_float "trailing mean of two (later)" 25. (snd arr.(3))

let test_timeseries_smooth_zero_window () =
  let ts = make_series [ (0., 1.); (1., 5.) ] in
  let s = Sim.Timeseries.smooth ts ~window:0. in
  Alcotest.(check bool) "identity" true
    (Sim.Timeseries.to_array s = Sim.Timeseries.to_array ts)

let prop_value_at_matches_scan =
  QCheck.Test.make ~name:"value_at matches linear scan" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 30) (float_bound_inclusive 100.))
        (float_bound_inclusive 120.))
    (fun (raw, query) ->
      let times = List.sort_uniq Float.compare raw in
      let ts = make_series (List.map (fun t -> (t, t *. 2.)) times) in
      let expected =
        List.fold_left (fun acc t -> if t <= query then Some (t *. 2.) else acc) None times
      in
      Sim.Timeseries.value_at ts query = expected)

let prop_ewma_converges_to_constant =
  QCheck.Test.make ~name:"ewma converges to a constant input" ~count:200
    QCheck.(
      triple (float_range 0.01 1.) (float_range (-100.) 100.)
        (float_range (-100.) 100.))
    (fun (gain, x0, c) ->
      let e = Sim.Stats.Ewma.create ~gain in
      Sim.Stats.Ewma.update e x0;
      for _ = 1 to 500 do
        Sim.Stats.Ewma.update e c
      done;
      (* Error after n steps is (1-gain)^n |x0 - c|; for gain >= 0.01
         and n = 500 that factor is under 0.7%. *)
      Float.abs (Sim.Stats.Ewma.value e -. c)
      <= (0.01 *. Float.abs (x0 -. c)) +. 1e-9)

let prop_timeseries_monotone_and_bounded =
  QCheck.Test.make
    ~name:"timeseries keeps timestamps monotone; window_mean stays in range"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40)
           (pair (float_bound_inclusive 100.) (float_range (-50.) 50.)))
        (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (raw, (a, b)) ->
      (* Feed samples in time order (duplicate times collapse to one
         insertion point in the generator's sort). *)
      let points =
        List.sort_uniq (fun (t1, _) (t2, _) -> compare t1 t2) raw
      in
      let ts = Sim.Timeseries.create () in
      List.iter (fun (t, v) -> Sim.Timeseries.add ts t v) points;
      let arr = Sim.Timeseries.to_array ts in
      let monotone = ref true in
      Array.iteri
        (fun i (t, _) -> if i > 0 && t <= fst arr.(i - 1) then monotone := false)
        arr;
      let from = Float.min a b and until = Float.max a b in
      let in_window =
        List.filter_map
          (fun (t, v) -> if t >= from && t <= until then Some v else None)
          points
      in
      let bounded =
        match (Sim.Timeseries.window_mean ts ~from ~until, in_window) with
        | None, [] -> true
        | None, _ :: _ -> false
        | Some _, [] -> false
        | Some m, vs ->
          let lo = List.fold_left Float.min infinity vs
          and hi = List.fold_left Float.max neg_infinity vs in
          m >= lo -. 1e-9 && m <= hi +. 1e-9
      in
      !monotone && bounded)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_disabled_is_inert () =
  let tr = Sim.Trace.create () in
  Alcotest.(check bool) "disabled" false (Sim.Trace.enabled tr);
  Alcotest.(check bool) "want no" false (Sim.Trace.want tr Sim.Trace.Enqueue);
  Sim.Trace.record tr ~time:1. Sim.Trace.Enqueue ~a:0 ~b:0 ~x:0. ~y:0.;
  Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.recorded tr);
  Alcotest.(check int) "nothing retained" 0 (Sim.Trace.length tr)

let test_trace_kind_filter () =
  let tr = Sim.Trace.create () in
  Sim.Trace.enable ~capacity:8 ~kinds:[ Sim.Trace.Drop; Sim.Trace.Epoch ] tr;
  Alcotest.(check bool) "wants drop" true (Sim.Trace.want tr Sim.Trace.Drop);
  Alcotest.(check bool) "ignores enqueue" false
    (Sim.Trace.want tr Sim.Trace.Enqueue);
  Sim.Trace.record tr ~time:1. Sim.Trace.Enqueue ~a:1 ~b:2 ~x:3. ~y:4.;
  Sim.Trace.record tr ~time:2. Sim.Trace.Drop ~a:1 ~b:2 ~x:1. ~y:0.;
  Alcotest.(check int) "filtered kind not recorded" 0
    (Sim.Trace.count tr Sim.Trace.Enqueue);
  Alcotest.(check int) "selected kind recorded" 1
    (Sim.Trace.count tr Sim.Trace.Drop);
  Alcotest.(check int) "one event retained" 1 (Sim.Trace.length tr)

let test_trace_ring_wrap () =
  let tr = Sim.Trace.create () in
  Sim.Trace.enable ~capacity:4 ~kinds:[ Sim.Trace.Epoch ] tr;
  for i = 1 to 10 do
    Sim.Trace.record tr ~time:(float_of_int i) Sim.Trace.Epoch ~a:i ~b:0
      ~x:0. ~y:0.
  done;
  Alcotest.(check int) "recorded counts survive wrap" 10 (Sim.Trace.recorded tr);
  Alcotest.(check int) "per-kind count survives wrap" 10
    (Sim.Trace.count tr Sim.Trace.Epoch);
  Alcotest.(check int) "ring holds capacity" 4 (Sim.Trace.length tr);
  Alcotest.(check int) "dropped = recorded - retained" 6
    (Sim.Trace.dropped_events tr);
  (* Oldest retained first: events 7, 8, 9, 10. *)
  List.iteri
    (fun i expect ->
      Alcotest.(check int)
        (Printf.sprintf "retained slot %d" i)
        expect (Sim.Trace.get tr i).Sim.Trace.a)
    [ 7; 8; 9; 10 ]

let test_trace_reset_and_exports () =
  let tr = Sim.Trace.create () in
  Sim.Trace.enable ~capacity:8 tr;
  Sim.Trace.record tr ~time:0.5 Sim.Trace.Drop ~a:3 ~b:7 ~x:1. ~y:0.;
  Sim.Trace.record tr ~time:1.5 Sim.Trace.Epoch ~a:2 ~b:0 ~x:9.25 ~y:4.;
  Alcotest.(check string) "jsonl"
    "{\"t\":0.5,\"kind\":\"drop\",\"a\":3,\"b\":7,\"x\":1.0,\"y\":0.0}\n\
     {\"t\":1.5,\"kind\":\"epoch\",\"a\":2,\"b\":0,\"x\":9.25,\"y\":4.0}\n"
    (Sim.Trace.to_jsonl tr);
  Alcotest.(check string) "csv"
    "time,kind,a,b,x,y\n0.5,drop,3,7,1.0,0.0\n1.5,epoch,2,0,9.25,4.0\n"
    (Sim.Trace.to_csv tr);
  Sim.Trace.enable ~capacity:8 tr;
  Alcotest.(check int) "enable clears counts" 0 (Sim.Trace.count tr Sim.Trace.Drop);
  Alcotest.(check int) "enable clears events" 0 (Sim.Trace.length tr)

let test_trace_spec_validates () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Trace.spec: capacity must be positive") (fun () ->
      ignore (Sim.Trace.spec ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_get_or_create () =
  let m = Sim.Metrics.create () in
  let c1 = Sim.Metrics.counter m "jobs" in
  let c2 = Sim.Metrics.counter m "jobs" in
  Sim.Metrics.incr c1;
  Sim.Metrics.add c2 2;
  Alcotest.(check int) "same instrument" 3 (Sim.Metrics.counter_value c1);
  Alcotest.check_raises "cross-kind collision"
    (Invalid_argument "Metrics.histogram: jobs already registered as a counter")
    (fun () -> ignore (Sim.Metrics.histogram m "jobs"))

let test_metrics_probe_follows_switch () =
  let m = Sim.Metrics.create () in
  Alcotest.(check bool) "switch off by default" false (Sim.Metrics.auto_probes m);
  Sim.Metrics.probe m "pull" (fun () -> 1.);
  Alcotest.(check int) "off: probe dropped" 0 (List.length (Sim.Metrics.rows m));
  Sim.Metrics.set_auto_probes m true;
  let cell = ref 1. in
  Sim.Metrics.probe m "pull" (fun () -> !cell);
  cell := 7.;
  (* Probes are sampled at export time, not at registration. *)
  let row =
    List.find (fun r -> r.Sim.Metrics.name = "pull") (Sim.Metrics.rows m)
  in
  check_float "probe sampled lazily" 7. row.Sim.Metrics.value;
  (* Re-registration replaces the closure. *)
  Sim.Metrics.probe m "pull" (fun () -> 42.);
  let row =
    List.find (fun r -> r.Sim.Metrics.name = "pull") (Sim.Metrics.rows m)
  in
  check_float "replaced" 42. row.Sim.Metrics.value

let test_metrics_rows_sorted () =
  let m = Sim.Metrics.create () in
  ignore (Sim.Metrics.counter m "zeta");
  ignore (Sim.Metrics.counter m "alpha");
  ignore (Sim.Metrics.counter m "mid");
  let names = List.map (fun r -> r.Sim.Metrics.name) (Sim.Metrics.rows m) in
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] names

let test_metrics_histogram_validates () =
  let m = Sim.Metrics.create () in
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing")
    (fun () -> ignore (Sim.Metrics.histogram ~buckets:[| 2.; 2. |] m "bad"))

let prop_histogram_sum_equals_count =
  QCheck.Test.make
    ~name:"histogram bucket counts sum to the observation count" ~count:200
    QCheck.(list (float_bound_inclusive 1500.))
    (fun xs ->
      let m = Sim.Metrics.create () in
      let h = Sim.Metrics.histogram m "h" in
      List.iter (Sim.Metrics.observe h) xs;
      let n = List.length xs in
      let bucket_total =
        List.fold_left (fun acc (_, c) -> acc + c) 0 (Sim.Metrics.bucket_counts h)
      in
      let total = List.fold_left ( +. ) 0. xs in
      Sim.Metrics.histogram_count h = n
      && bucket_total = n
      && Float.abs (Sim.Metrics.histogram_sum h -. total) <= 1e-6 *. (1. +. Float.abs total))

(* ------------------------------------------------------------------ *)
(* Invariant auditing *)

let test_invariant_require () =
  Sim.Invariant.require ~what:"fine" true;
  Alcotest.check_raises "failed check raises" (Sim.Invariant.Violation "broken")
    (fun () -> Sim.Invariant.require ~what:"broken" false);
  Alcotest.check_raises "lazy message built on failure"
    (Sim.Invariant.Violation "lazy") (fun () ->
      Sim.Invariant.requiref ~what:(fun () -> "lazy") false)

let test_invariant_default_toggle () =
  let saved = Sim.Invariant.default () in
  Sim.Invariant.set_default false;
  Alcotest.(check bool) "off" false (Sim.Invariant.default ());
  Sim.Invariant.set_default true;
  Alcotest.(check bool) "on" true (Sim.Invariant.default ());
  Sim.Invariant.set_default saved

let test_engine_monotonicity_audited () =
  (* Every step of a checked engine audits clock monotonicity, so the
     global check counter must advance by at least the event count.
     This suite turns the auditor on at start-up. *)
  let before = Sim.Invariant.checks_run () in
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr fired)
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "all fired" 10 !fired;
  Alcotest.(check bool) "auditing ran" true
    (Sim.Invariant.checks_run () - before >= 10)

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "empty queue" `Quick test_queue_empty;
          Alcotest.test_case "orders by key" `Quick test_queue_orders_by_key;
          Alcotest.test_case "fifo on ties" `Quick test_queue_fifo_on_ties;
          Alcotest.test_case "peek matches pop" `Quick test_queue_peek_matches_pop;
          Alcotest.test_case "interleaved grow" `Quick test_queue_interleaved_grow;
          qt prop_queue_sorted;
          qt prop_queue_preserves_multiset;
          qt prop_queue_matches_sorted_model;
          qt prop_queue_length_tracks_model;
          Alcotest.test_case "unboxed api" `Quick test_queue_unboxed_api;
          qt prop_queue_slab_recycling;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_queue_steady_state_allocates_nothing;
          qt
            (prop_queue_slab_bounded ~name:"direct adds keep the slab within twice their peak"
               ~laned:false);
          qt
            (prop_queue_slab_bounded ~name:"lane adds keep the slab within twice their peak"
               ~laned:true);
          qt
            (prop_queue_lanes_match_model
               ~name:"direct and lane adds, pop_exn, clear pop the sorted model" ~delays:8
               ~max_ops:1500 ~clears:2);
          qt
            (prop_queue_lanes_match_model
               ~name:"lane adds past the lane cap pop the sorted model" ~delays:2000
               ~max_ops:3000 ~clears:0);
          Alcotest.test_case "lane rejects out-of-order add" `Quick
            test_queue_lane_rejects_out_of_order;
          Alcotest.test_case "lane cap falls back to the heap" `Quick
            test_queue_lane_cap_falls_back_to_heap;
          Alcotest.test_case "laned steady state allocates nothing" `Quick
            test_queue_lanes_steady_state_allocates_nothing;
        ] );
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "wraparound growth" `Quick
            test_ring_wraparound_growth;
          qt prop_ring_matches_stdlib_queue;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_runs_in_time_order;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel from event" `Quick test_engine_cancel_from_event;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "every with start" `Quick test_engine_every_start;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects bad times" `Quick test_engine_rejects_bad_times;
          Alcotest.test_case "every validates start" `Quick
            test_engine_every_validates_start;
          Alcotest.test_case "schedule and schedule_at" `Quick
            test_engine_schedule_and_schedule_at;
          Alcotest.test_case "clock" `Quick test_engine_clock;
          Alcotest.test_case "schedule rejects an overflowing time" `Quick
            test_engine_schedule_rejects_overflow;
          Alcotest.test_case "pending" `Quick test_engine_pending;
          Alcotest.test_case "simultaneous fifo" `Quick test_engine_simultaneous_fifo;
          qt prop_engine_lanes_match_reference;
          qt prop_engine_past_lane_cap_matches_reference;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "stream derivation is pure" `Quick test_rng_stream_is_pure;
          qt prop_rng_scenario_replays;
          qt prop_rng_scenario_streams_disjoint;
          qt prop_rng_sibling_streams_disjoint;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float uniform" `Quick test_rng_float_unit;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto" `Quick test_rng_pareto;
          qt prop_sampler_means_converge;
          qt prop_sampler_split_determinism;
          qt prop_pareto_tail_index;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tw constant" `Quick test_time_weighted_constant;
          Alcotest.test_case "tw step" `Quick test_time_weighted_step;
          Alcotest.test_case "tw reset" `Quick test_time_weighted_reset;
          Alcotest.test_case "tw empty window" `Quick test_time_weighted_empty_window;
          Alcotest.test_case "tw backwards" `Quick test_time_weighted_rejects_backwards;
          Alcotest.test_case "ewma first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "ewma converges" `Quick test_ewma_converges;
          Alcotest.test_case "ewma formula" `Quick test_ewma_formula;
          Alcotest.test_case "ewma bad gain" `Quick test_ewma_rejects_bad_gain;
          qt prop_ewma_converges_to_constant;
          Alcotest.test_case "welford" `Quick test_welford;
          Alcotest.test_case "welford degenerate" `Quick test_welford_degenerate;
          qt prop_welford_mean_matches_naive;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basic" `Quick test_timeseries_basic;
          Alcotest.test_case "window mean" `Quick test_timeseries_window_mean;
          Alcotest.test_case "value_at" `Quick test_timeseries_value_at;
          Alcotest.test_case "smooth" `Quick test_timeseries_smooth;
          Alcotest.test_case "smooth zero window" `Quick
            test_timeseries_smooth_zero_window;
          qt prop_value_at_matches_scan;
          qt prop_timeseries_monotone_and_bounded;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is inert" `Quick test_trace_disabled_is_inert;
          Alcotest.test_case "kind filter" `Quick test_trace_kind_filter;
          Alcotest.test_case "ring wrap" `Quick test_trace_ring_wrap;
          Alcotest.test_case "reset and exports" `Quick test_trace_reset_and_exports;
          Alcotest.test_case "spec validates" `Quick test_trace_spec_validates;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "get or create" `Quick test_metrics_get_or_create;
          Alcotest.test_case "probe follows the switch" `Quick
            test_metrics_probe_follows_switch;
          Alcotest.test_case "rows sorted" `Quick test_metrics_rows_sorted;
          Alcotest.test_case "histogram validates" `Quick
            test_metrics_histogram_validates;
          qt prop_histogram_sum_equals_count;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "require raises" `Quick test_invariant_require;
          Alcotest.test_case "default toggle" `Quick test_invariant_default_toggle;
          Alcotest.test_case "engine audited" `Quick test_engine_monotonicity_audited;
        ] );
    ]
