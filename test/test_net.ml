(* Tests for the network substrate: packets, queue disciplines, links,
   nodes, topology, flows and the adaptive source. *)

let check_float = Alcotest.(check (float 1e-9))

(* Addressed to host 0, the B of [simple_net]. *)
let mk_packet ?(id = 1) ?(flow = 1) ?(size = Net.Packet.default_size) ?marker () =
  let p = Net.Packet.make ~id ~flow ~size ?marker ~created:0. () in
  p.Net.Packet.dst <- 0;
  p

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_defaults () =
  let p = mk_packet () in
  Alcotest.(check int) "size" 1000 p.Net.Packet.size;
  Alcotest.(check bool) "no marker" false (Net.Packet.has_marker p);
  Alcotest.(check bool) "unlabelled" true (p.Net.Packet.floats.label < 0.)

let test_packet_marker () =
  let marker = { Net.Packet.edge_id = 3; flow_id = 7; normalized_rate = 12.5 } in
  let p = Net.Packet.make ~id:1 ~flow:7 ~marker ~created:1. () in
  Alcotest.(check bool) "has marker" true (Net.Packet.has_marker p);
  match Net.Packet.marker p with
  | Some m -> Alcotest.(check int) "flow id" 7 m.Net.Packet.flow_id
  | None -> Alcotest.fail "marker lost"

(* ------------------------------------------------------------------ *)
(* Packet pool *)

(* What [alloc] promises of every packet it hands out, reused or new. *)
let reads_fresh ~id ~flow ~created p =
  p.Net.Packet.id = id
  && p.Net.Packet.flow = flow
  && p.Net.Packet.micro = 0
  && p.Net.Packet.size = Net.Packet.default_size
  && p.Net.Packet.dst = -1
  && (not (Net.Packet.has_marker p))
  && p.Net.Packet.floats.Net.Packet.label < 0.
  && Float.equal p.Net.Packet.floats.Net.Packet.created created

(* Scribble over every field a sender or a core may write. *)
let dirty p =
  Net.Packet.set_marker p { Net.Packet.edge_id = 4; flow_id = 9; normalized_rate = 2.5 };
  p.Net.Packet.floats.Net.Packet.label <- 3.;
  p.Net.Packet.dst <- 5;
  p.Net.Packet.micro <- 7;
  p.Net.Packet.size <- 40

let test_pool_reuse_resets () =
  let pool = Net.Packet.create_pool () in
  let p = Net.Packet.alloc pool ~id:1 ~flow:2 ~created:0.5 in
  dirty p;
  Net.Packet.release p;
  Alcotest.(check int) "released dst" (-2) p.Net.Packet.dst;
  let q = Net.Packet.alloc pool ~id:3 ~flow:4 ~created:1.5 in
  Alcotest.(check bool) "same record" true (p == q);
  Alcotest.(check bool) "reads like a fresh packet" true
    (reads_fresh ~id:3 ~flow:4 ~created:1.5 q);
  Alcotest.(check int) "outstanding" 1 (Net.Packet.outstanding pool)

(* Operations on one pool against a reference free list: [(0, _)]
   allocates, [(1, i)] releases a live packet, [(2, i)] scribbles over
   one. The pool must hand back the most recently released record
   before it makes a new one, reset it, and count what is out. *)
let prop_pool_model =
  QCheck.Test.make ~count:300 ~name:"Packet pool matches a free-list model"
    QCheck.(list (pair (int_range 0 2) small_nat))
    (fun ops ->
      let pool = Net.Packet.create_pool () in
      let live = ref [] and free = ref [] and seen = ref [] in
      let allocs = ref 0 and releases = ref 0 in
      let pick i = List.nth !live (i mod List.length !live) in
      List.iter
        (fun (op, i) ->
          (match op with
          | 0 ->
            incr allocs;
            let created = float_of_int !allocs in
            let p = Net.Packet.alloc pool ~id:!allocs ~flow:i ~created in
            (match !free with
            | q :: rest ->
              if p != q then QCheck.Test.fail_report "a released record was skipped";
              free := rest
            | [] ->
              if List.memq p !seen then
                QCheck.Test.fail_report "a live record was handed out twice";
              seen := p :: !seen);
            if not (reads_fresh ~id:!allocs ~flow:i ~created p) then
              QCheck.Test.fail_report "an allocated packet does not read fresh";
            live := p :: !live
          | 1 when !live <> [] ->
            let p = pick i in
            Net.Packet.release p;
            incr releases;
            live := List.filter (fun q -> q != p) !live;
            free := p :: !free;
            if p.Net.Packet.dst <> -2 then
              QCheck.Test.fail_report "a released packet is not stamped -2"
          | _ when !live <> [] -> dirty (pick i)
          | _ -> ());
          if Net.Packet.outstanding pool <> !allocs - !releases then
            QCheck.Test.fail_report "outstanding <> allocations - releases")
        ops;
      List.iter
        (fun p ->
          match Net.Packet.release p with
          | () -> QCheck.Test.fail_report "a second release was accepted"
          | exception Invalid_argument _ -> ())
        !free;
      true)

let test_pool_unpooled_release () =
  let p = mk_packet () in
  Net.Packet.release p;
  Net.Packet.release p;
  Alcotest.(check int) "dst untouched" 0 p.Net.Packet.dst

(* ------------------------------------------------------------------ *)
(* Qdisc: droptail *)

let test_droptail_fifo () =
  let q = Net.Qdisc.droptail ~capacity:10 in
  List.iter
    (fun i -> ignore (q.Net.Qdisc.enqueue (mk_packet ~id:i ())))
    [ 1; 2; 3 ];
  let ids =
    List.init 3 (fun _ ->
        match q.Net.Qdisc.dequeue () with
        | Some p -> p.Net.Packet.id
        | None -> -1)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] ids;
  Alcotest.(check bool) "drained" true (q.Net.Qdisc.dequeue () = None)

let test_droptail_capacity () =
  let q = Net.Qdisc.droptail ~capacity:2 in
  Alcotest.(check bool) "1 in" true (q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Enqueued);
  Alcotest.(check bool) "2 in" true (q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Enqueued);
  Alcotest.(check bool) "3 dropped" true (q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Dropped);
  Alcotest.(check int) "length" 2 (q.Net.Qdisc.length ());
  ignore (q.Net.Qdisc.dequeue ());
  Alcotest.(check bool) "room again" true (q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Enqueued)

let test_droptail_bytes () =
  let q = Net.Qdisc.droptail ~capacity:10 in
  ignore (q.Net.Qdisc.enqueue (mk_packet ~size:100 ()));
  ignore (q.Net.Qdisc.enqueue (mk_packet ~size:200 ()));
  Alcotest.(check int) "bytes" 300 (q.Net.Qdisc.bytes ());
  ignore (q.Net.Qdisc.dequeue ());
  Alcotest.(check int) "bytes after dequeue" 200 (q.Net.Qdisc.bytes ())

let test_droptail_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Qdisc.droptail: capacity must be positive") (fun () ->
      ignore (Net.Qdisc.droptail ~capacity:0))

let qt = QCheck_alcotest.to_alcotest

(* The ring-backed FIFO must be observationally identical to a
   [Stdlib.Queue] with a byte counter — including across the head
   wraparound and growth cases that a plain push-then-drain test never
   reaches. Ops: [Some size] pushes a packet of that size, [None]
   alternates between pop and peek. *)
let prop_fifo_matches_stdlib_queue =
  QCheck.Test.make ~count:300 ~name:"Qdisc.Fifo matches Stdlib.Queue model"
    QCheck.(list (option (int_range 1 1500)))
    (fun ops ->
      let fifo = Net.Qdisc.Fifo.create () in
      let model = Queue.create () in
      let model_bytes = ref 0 in
      let id = ref 0 in
      List.iteri
        (fun step op ->
          (match op with
          | Some size ->
            incr id;
            let p = mk_packet ~id:!id ~size () in
            Net.Qdisc.Fifo.push fifo p;
            Queue.push p model;
            model_bytes := !model_bytes + size
          | None when step land 1 = 0 -> (
            match (Net.Qdisc.Fifo.pop fifo, Queue.take_opt model) with
            | Some p, Some q ->
              if p.Net.Packet.id <> q.Net.Packet.id then
                QCheck.Test.fail_report "pop order diverged";
              model_bytes := !model_bytes - q.Net.Packet.size
            | None, None -> ()
            | _ -> QCheck.Test.fail_report "pop emptiness diverged")
          | None -> (
            match (Net.Qdisc.Fifo.peek fifo, Queue.peek_opt model) with
            | Some p, Some q ->
              if p.Net.Packet.id <> q.Net.Packet.id then
                QCheck.Test.fail_report "peek diverged"
            | None, None -> ()
            | _ -> QCheck.Test.fail_report "peek emptiness diverged"));
          if Net.Qdisc.Fifo.length fifo <> Queue.length model then
            QCheck.Test.fail_report "length diverged";
          if Net.Qdisc.Fifo.bytes fifo <> !model_bytes then
            QCheck.Test.fail_report "bytes diverged")
        ops;
      (* Drain: the full residual contents must match. *)
      let rec drain () =
        match (Net.Qdisc.Fifo.pop fifo, Queue.take_opt model) with
        | Some p, Some q ->
          if p.Net.Packet.id <> q.Net.Packet.id then
            QCheck.Test.fail_report "drain order diverged";
          drain ()
        | None, None -> true
        | _ -> QCheck.Test.fail_report "drain emptiness diverged"
      in
      drain ())

(* ------------------------------------------------------------------ *)
(* Qdisc: RED *)

let red_qdisc ?(params = Net.Qdisc.default_red_params) () =
  let now = ref 0. in
  let q = Net.Qdisc.red ~params ~rng:(Sim.Rng.create 1) ~now:(fun () -> !now) () in
  (q, now)

let test_red_accepts_below_min () =
  let q, _ = red_qdisc () in
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "packet %d accepted" i)
      true
      (q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Enqueued)
  done

let test_red_drops_above_max () =
  (* Sustained full queue pushes the average over max_thresh and forces
     drops. *)
  let params =
    { Net.Qdisc.default_red_params with Net.Qdisc.queue_weight = 0.5; max_thresh = 10. }
  in
  let q, _ = red_qdisc ~params () in
  let dropped = ref 0 in
  for _ = 1 to 50 do
    if q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Dropped then incr dropped
  done;
  Alcotest.(check bool) "some early drops" true (!dropped > 0)

let test_red_hard_limit () =
  let params = { Net.Qdisc.default_red_params with Net.Qdisc.capacity = 5 } in
  let q, _ = red_qdisc ~params () in
  let accepted = ref 0 in
  for _ = 1 to 20 do
    if q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Enqueued then incr accepted
  done;
  Alcotest.(check bool) "never exceeds capacity" true (!accepted <= 5)

let test_red_idle_decay () =
  let params =
    { Net.Qdisc.default_red_params with Net.Qdisc.queue_weight = 0.5; max_thresh = 8. }
  in
  let q, now = red_qdisc ~params () in
  (* Build up the average... *)
  for _ = 1 to 30 do
    ignore (q.Net.Qdisc.enqueue (mk_packet ()))
  done;
  while q.Net.Qdisc.dequeue () <> None do
    ()
  done;
  (* ...then stay idle long enough for it to decay away. *)
  now := !now +. 10.;
  Alcotest.(check bool) "accepted after idle" true
    (q.Net.Qdisc.enqueue (mk_packet ()) = Net.Qdisc.Enqueued)

(* ------------------------------------------------------------------ *)
(* Qdisc: FRED *)

let test_fred_bounds_hog_flow () =
  let now = ref 0. in
  let q = Net.Qdisc.fred ~rng:(Sim.Rng.create 2) ~now:(fun () -> !now) () in
  (* A single flow trying to monopolize the buffer gets bounded well
     below the hard capacity once its per-flow count passes maxq. *)
  let accepted = ref 0 in
  for i = 1 to 40 do
    if q.Net.Qdisc.enqueue (mk_packet ~id:i ~flow:1 ()) = Net.Qdisc.Enqueued then
      incr accepted
  done;
  Alcotest.(check bool) "hog bounded" true (!accepted < 40);
  (* A newcomer with nothing queued still gets in (protected share). *)
  Alcotest.(check bool) "newcomer accepted" true
    (q.Net.Qdisc.enqueue (mk_packet ~id:100 ~flow:2 ()) = Net.Qdisc.Enqueued)

let test_fred_forgets_inactive_flows () =
  let now = ref 0. in
  let q = Net.Qdisc.fred ~rng:(Sim.Rng.create 3) ~now:(fun () -> !now) () in
  for i = 1 to 3 do
    ignore (q.Net.Qdisc.enqueue (mk_packet ~id:i ~flow:1 ()))
  done;
  while q.Net.Qdisc.dequeue () <> None do
    ()
  done;
  (* After draining, flow 1 has no per-flow state and is a newcomer. *)
  Alcotest.(check bool) "re-admitted" true
    (q.Net.Qdisc.enqueue (mk_packet ~id:9 ~flow:1 ()) = Net.Qdisc.Enqueued)

(* ------------------------------------------------------------------ *)
(* Qdisc: classful (multi-queue) *)

let mk_class_pkt ~id ~micro () = Net.Packet.make ~id ~flow:1 ~micro ~created:0. ()

let classify pkt = pkt.Net.Packet.micro

let test_classful_priority_order () =
  let q =
    Net.Qdisc.classful ~classes:2 ~classify ~scheduler:Net.Qdisc.Priority ~capacity:10 ()
  in
  (* Low-priority first into the buffer, then high priority: the high
     class is always served first. *)
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:1 ~micro:1 ()));
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:2 ~micro:0 ()));
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:3 ~micro:1 ()));
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:4 ~micro:0 ()));
  let order =
    List.init 4 (fun _ ->
        match q.Net.Qdisc.dequeue () with Some p -> p.Net.Packet.id | None -> -1)
  in
  Alcotest.(check (list int)) "class 0 first" [ 2; 4; 1; 3 ] order

let test_classful_wrr_proportions () =
  let q =
    Net.Qdisc.classful ~classes:2 ~classify
      ~scheduler:(Net.Qdisc.Weighted_round_robin [| 2; 1 |])
      ~capacity:100 ()
  in
  for i = 1 to 30 do
    ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:i ~micro:0 ()));
    ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:(100 + i) ~micro:1 ()))
  done;
  (* While both classes are backlogged, the 2:1 quanta give class 0 two
     thirds of the service. *)
  let class0 = ref 0 in
  for _ = 1 to 30 do
    match q.Net.Qdisc.dequeue () with
    | Some p -> if p.Net.Packet.micro = 0 then incr class0
    | None -> Alcotest.fail "queue drained early"
  done;
  Alcotest.(check int) "2/3 of service" 20 !class0

let test_classful_aggregate_length () =
  let q =
    Net.Qdisc.classful ~classes:3 ~classify ~scheduler:Net.Qdisc.Priority ~capacity:5 ()
  in
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:1 ~micro:0 ()));
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:2 ~micro:1 ()));
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:3 ~micro:2 ()));
  Alcotest.(check int) "aggregate backlog" 3 (q.Net.Qdisc.length ());
  Alcotest.(check int) "aggregate bytes" 3000 (q.Net.Qdisc.bytes ())

let test_classful_per_class_capacity () =
  let q =
    Net.Qdisc.classful ~classes:2 ~classify ~scheduler:Net.Qdisc.Priority ~capacity:2 ()
  in
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:1 ~micro:0 ()));
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:2 ~micro:0 ()));
  Alcotest.(check bool) "class 0 full" true
    (q.Net.Qdisc.enqueue (mk_class_pkt ~id:3 ~micro:0 ()) = Net.Qdisc.Dropped);
  Alcotest.(check bool) "class 1 unaffected" true
    (q.Net.Qdisc.enqueue (mk_class_pkt ~id:4 ~micro:1 ()) = Net.Qdisc.Enqueued)

let test_classful_wrr_skips_empty_classes () =
  let q =
    Net.Qdisc.classful ~classes:3 ~classify
      ~scheduler:(Net.Qdisc.Weighted_round_robin [| 5; 5; 5 |])
      ~capacity:10 ()
  in
  ignore (q.Net.Qdisc.enqueue (mk_class_pkt ~id:7 ~micro:2 ()));
  (match q.Net.Qdisc.dequeue () with
  | Some p -> Alcotest.(check int) "served from the only busy class" 7 p.Net.Packet.id
  | None -> Alcotest.fail "nothing served");
  Alcotest.(check bool) "then empty" true (q.Net.Qdisc.dequeue () = None)

let test_classful_validation () =
  Alcotest.check_raises "classes" (Invalid_argument "Qdisc.classful: classes must be positive")
    (fun () ->
      ignore
        (Net.Qdisc.classful ~classes:0 ~classify ~scheduler:Net.Qdisc.Priority
           ~capacity:1 ()));
  Alcotest.check_raises "quanta arity" (Invalid_argument "Qdisc.classful: one quantum per class")
    (fun () ->
      ignore
        (Net.Qdisc.classful ~classes:2 ~classify
           ~scheduler:(Net.Qdisc.Weighted_round_robin [| 1 |])
           ~capacity:1 ()))

(* ------------------------------------------------------------------ *)
(* Link and Topology *)

(* One link between two nodes, routed so that B is host 0; returns
   (engine, topology, a, b, link). *)
let simple_net ?(bandwidth = 8000.) ?(delay = 0.1) ?(capacity = 10) () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let a = Net.Topology.add_node topology ~kind:Net.Node.Edge "A" in
  let b = Net.Topology.add_node topology ~kind:Net.Node.Edge "B" in
  let link =
    Net.Topology.add_link topology ~src:a ~dst:b ~bandwidth ~delay
      ~qdisc:(Net.Qdisc.droptail ~capacity)
  in
  Net.Topology.route_paths topology [ [ a; b ] ];
  (engine, topology, a, b, link)

let test_link_delivery_timing () =
  (* 1000-byte packet on 8000 bit/s: tx = 1 s, delay = 0.1 s. *)
  let engine, topology, _, _, link = simple_net () in
  let arrival = ref nan in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> arrival := Sim.Engine.now engine);
  Net.Link.send link (mk_packet ());
  Sim.Engine.run engine;
  check_float "tx + propagation" 1.1 !arrival

let test_link_serializes () =
  let engine, topology, _, _, link = simple_net () in
  let arrivals = ref [] in
  Net.Topology.set_flow_sink topology ~flow:1 (fun p ->
      arrivals := (p.Net.Packet.id, Sim.Engine.now engine) :: !arrivals);
  Net.Link.send link (mk_packet ~id:1 ());
  Net.Link.send link (mk_packet ~id:2 ());
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9))))
    "back to back" [ (1, 1.1); (2, 2.1) ] (List.rev !arrivals)

let test_link_queue_overflow_drops () =
  let engine, topology, _, _, link = simple_net ~capacity:2 () in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> ());
  let reasons = ref [] in
  link.Net.Link.on_drop <- Some (fun reason _ -> reasons := reason :: !reasons);
  (* One in service + 2 queued fit; the rest overflow. *)
  for i = 1 to 6 do
    Net.Link.send link (mk_packet ~id:i ())
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "drops counted" 3 link.Net.Link.drops;
  Alcotest.(check int) "delivered" 3 link.Net.Link.departures;
  Alcotest.(check bool) "all overflow reasons" true
    (List.for_all (fun r -> r = Net.Link.Queue_full) !reasons)

let test_link_hook_filter_drop () =
  let engine, topology, _, _, link = simple_net () in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> ());
  let reasons = ref [] in
  link.Net.Link.on_drop <- Some (fun reason _ -> reasons := reason :: !reasons);
  link.Net.Link.hooks <-
    Some
      {
        Net.Link.on_arrival =
          (fun p -> if p.Net.Packet.id mod 2 = 0 then Net.Link.Drop else Net.Link.Pass);
        on_queue_change = (fun _ -> ());
      };
  for i = 1 to 4 do
    Net.Link.send link (mk_packet ~id:i ())
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "two filtered" 2 link.Net.Link.drops;
  Alcotest.(check bool) "filtered reasons" true
    (List.for_all (fun r -> r = Net.Link.Filtered) !reasons)

let test_link_queue_change_hook () =
  let engine, topology, _, _, link = simple_net () in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> ());
  let lengths = ref [] in
  link.Net.Link.hooks <-
    Some
      {
        Net.Link.on_arrival = (fun _ -> Net.Link.Pass);
        on_queue_change = (fun n -> lengths := n :: !lengths);
      };
  for i = 1 to 3 do
    Net.Link.send link (mk_packet ~id:i ())
  done;
  Sim.Engine.run engine;
  (* First packet: enqueue (1) then immediate dequeue (0); then two
     enqueues while busy, then their dequeues. *)
  Alcotest.(check int) "final queue empty" 0 (List.hd !lengths);
  Alcotest.(check bool) "observed buildup" true (List.mem 2 !lengths)

let test_link_capacity_pps () =
  let _, _, _, _, link = simple_net ~bandwidth:4_000_000. () in
  check_float "500 pkt/s" 500. (Net.Link.capacity_pps link)

let test_link_rejects_bad_args () =
  let engine = Sim.Engine.create () in
  let mk ~bandwidth ~delay () =
    ignore
      (Net.Link.create ~engine ~id:0 ~name:"x" ~src:0 ~dst:1 ~bandwidth ~delay
         ~qdisc:(Net.Qdisc.droptail ~capacity:1) ())
  in
  Alcotest.check_raises "zero bandwidth"
    (Invalid_argument "Link.create: bandwidth must be positive")
    (mk ~bandwidth:0. ~delay:0.);
  Alcotest.check_raises "negative bandwidth"
    (Invalid_argument "Link.create: bandwidth must be positive")
    (mk ~bandwidth:(-8000.) ~delay:0.);
  Alcotest.check_raises "nan bandwidth"
    (Invalid_argument "Link.create: bandwidth must be finite")
    (mk ~bandwidth:Float.nan ~delay:0.);
  Alcotest.check_raises "infinite bandwidth"
    (Invalid_argument "Link.create: bandwidth must be finite")
    (mk ~bandwidth:Float.infinity ~delay:0.);
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Link.create: delay must be finite")
    (mk ~bandwidth:8000. ~delay:Float.nan);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Link.create: negative delay")
    (mk ~bandwidth:8000. ~delay:(-0.1))

(* ------------------------------------------------------------------ *)
(* Link outages, resets and the fault hook (the chaos surface) *)

let test_link_down_purges_and_recovers () =
  let engine, topology, _, _, link = simple_net () in
  let delivered = ref [] in
  Net.Topology.set_flow_sink topology ~flow:1 (fun p -> delivered := p.Net.Packet.id :: !delivered);
  let reasons = ref [] in
  link.Net.Link.on_drop <- Some (fun reason _ -> reasons := reason :: !reasons);
  (* 8000 bit/s, 1000 B packets: 1 s serialization each. Queue 5, take
     the link down at 1.5 s (one delivered, one on the wire or in
     service, rest queued), bring it back at 3 s and send two more. *)
  for i = 1 to 5 do
    Net.Link.send link (mk_packet ~id:i ())
  done;
  ignore
    (Sim.Engine.schedule_at engine ~time:1.5 (fun () -> Net.Link.set_up link false));
  ignore
    (Sim.Engine.schedule_at engine ~time:3.0 (fun () ->
         Net.Link.set_up link true;
         Net.Link.send link (mk_packet ~id:6 ());
         Net.Link.send link (mk_packet ~id:7 ())));
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "survivors in order" [ 1; 6; 7 ] (List.rev !delivered);
  Alcotest.(check bool) "all losses are Down" true
    (List.for_all (fun r -> r = Net.Link.Down) !reasons);
  (* Conservation across the purge: everything sent is accounted. *)
  Alcotest.(check int) "arrivals" 7 link.Net.Link.arrivals;
  Alcotest.(check int) "departures + drops" 7
    (link.Net.Link.departures + link.Net.Link.drops);
  Alcotest.(check int) "queue empty" 0 (Net.Link.queue_length link)

let test_link_send_while_down_drops () =
  let engine, topology, _, _, link = simple_net () in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> Alcotest.fail "delivered through a down link");
  Net.Link.set_up link false;
  Net.Link.send link (mk_packet ~id:1 ());
  Sim.Engine.run engine;
  Alcotest.(check int) "counted as drop" 1 link.Net.Link.drops;
  Alcotest.(check bool) "still down" false (Net.Link.is_up link)

let test_link_reset_purges_but_stays_up () =
  let engine, topology, _, _, link = simple_net () in
  let delivered = ref [] in
  Net.Topology.set_flow_sink topology ~flow:1 (fun p -> delivered := p.Net.Packet.id :: !delivered);
  for i = 1 to 4 do
    Net.Link.send link (mk_packet ~id:i ())
  done;
  ignore
    (Sim.Engine.schedule_at engine ~time:1.5 (fun () ->
         Net.Link.reset link;
         Alcotest.(check bool) "up across reset" true (Net.Link.is_up link);
         (* A reset link is a working link, immediately. *)
         Net.Link.send link (mk_packet ~id:9 ())));
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "first and post-reset packets" [ 1; 9 ]
    (List.rev !delivered);
  Alcotest.(check int) "arrivals" 5 link.Net.Link.arrivals;
  Alcotest.(check int) "departures + drops" 5
    (link.Net.Link.departures + link.Net.Link.drops)

let test_link_fault_hook_strip_and_lose () =
  let engine, topology, _, _, link = simple_net () in
  let delivered = ref [] in
  Net.Topology.set_flow_sink topology ~flow:1 (fun p -> delivered := p :: !delivered);
  let reasons = ref [] in
  link.Net.Link.on_drop <- Some (fun reason _ -> reasons := reason :: !reasons);
  (* Deterministic stand-in for Net.Fault: lose even ids, strip odd. *)
  Net.Link.set_fault link
    (Some
       (fun p ->
         if p.Net.Packet.id mod 2 = 0 then Net.Link.Lose else Net.Link.Strip));
  let marker = { Net.Packet.edge_id = 0; flow_id = 1; normalized_rate = 1.0 } in
  for i = 1 to 4 do
    Net.Link.send link
      (mk_packet ~id:i ~marker ())
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "odd ids forwarded" [ 1; 3 ]
    (List.rev_map (fun p -> p.Net.Packet.id) !delivered);
  Alcotest.(check bool) "markers stripped" true
    (List.for_all (fun p -> not (Net.Packet.has_marker p)) !delivered);
  Alcotest.(check bool) "even ids lost as Injected" true
    (!reasons = [ Net.Link.Injected; Net.Link.Injected ]);
  Net.Link.set_fault link None;
  Net.Link.send link (mk_packet ~id:5 ());
  Sim.Engine.run engine;
  Alcotest.(check int) "hook cleared, packet delivered" 3 (List.length !delivered)

(* Flow 1 on A -> B -> C: the agent hands its packet to the first link,
   B forwards on C's host index and C delivers to the flow's sink. *)
let test_node_routes_and_sinks () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let n name = Net.Topology.add_node topology ~kind:Net.Node.Core name in
  let a = n "A" and b = n "B" and c = n "C" in
  let link ~src ~dst =
    Net.Topology.add_link topology ~src ~dst ~bandwidth:8000. ~delay:0.1
      ~qdisc:(Net.Qdisc.droptail ~capacity:10)
  in
  let first = link ~src:a ~dst:b in
  let second = link ~src:b ~dst:c in
  let flow = Net.Flow.make ~id:1 ~weight:1. ~path:[ a; b; c ] in
  Net.Topology.route_paths topology [ flow.Net.Flow.path ];
  Alcotest.(check int) "egress is host 0" 0 c.Net.Node.host;
  Alcotest.(check bool) "interior entry" true
    (match b.Net.Node.fib with [| Some l |] -> l == second | _ -> false);
  Alcotest.(check int) "no ingress entry" 0 (Array.length a.Net.Node.fib);
  Alcotest.(check bool) "first link" true (Net.Flow.first_link flow topology == first);
  let got = ref [] in
  Net.Topology.set_flow_sink topology ~flow:1 (fun p -> got := p.Net.Packet.id :: !got);
  Net.Link.send first (mk_packet ~id:42 ());
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "delivered through path" [ 42 ] !got

(* A node holds entries only for the hosts that routed paths reach
   through it (the ingress A, which agents bypass, holds none), and a
   host delivers only the flows that registered a sink. *)
let test_node_unknown_host_fails () =
  let _, _, a, b, _ = simple_net () in
  Alcotest.check_raises "unknown host" (Failure "Node A: no FIB entry for host 0")
    (fun () -> Net.Node.receive a (mk_packet ()));
  Alcotest.check_raises "unknown flow" (Failure "Topology: no sink installed for flow 9")
    (fun () -> Net.Node.receive b (mk_packet ~flow:9 ()))

(* A packet reaching a node whose FIB lacks its host — the table is
   empty, too short, or the packet was never stamped ([dst = -1]) —
   fails with the node's own message, not a bare index error. *)
let test_node_fib_out_of_range_fails () =
  let _, _, a, _, link = simple_net () in
  let stamped dst =
    let p = mk_packet () in
    p.Net.Packet.dst <- dst;
    p
  in
  Alcotest.check_raises "empty fib" (Failure "Node A: no FIB entry for host 3")
    (fun () -> Net.Node.receive a (stamped 3));
  a.Net.Node.fib <- [| Some link |];
  Alcotest.check_raises "short fib" (Failure "Node A: no FIB entry for host 1")
    (fun () -> Net.Node.receive a (stamped 1));
  Alcotest.check_raises "unstamped" (Failure "Node A: no FIB entry for host -1")
    (fun () -> Net.Node.receive a (stamped (-1)))

(* [on_drop] sees the packet intact; the link releases it afterwards. *)
let test_pool_link_drop_releases () =
  let engine, topology, _, _, link = simple_net ~capacity:1 () in
  let pool = Net.Topology.pool topology in
  let seen = ref [] in
  link.Net.Link.on_drop <- Some (fun _ p -> seen := p.Net.Packet.dst :: !seen);
  let send id =
    let p = Net.Packet.alloc pool ~id ~flow:1 ~created:0. in
    p.Net.Packet.dst <- 0;
    Net.Link.send link p;
    p
  in
  ignore (send 1);
  ignore (send 2);
  let dropped = send 3 in
  Alcotest.(check (list int)) "on_drop saw the stamped packet" [ 0 ] !seen;
  Alcotest.(check int) "dropped packet released" (-2) dropped.Net.Packet.dst;
  Alcotest.(check int) "in service + queued" 2 (Net.Packet.outstanding pool);
  Net.Topology.set_flow_sink topology ~flow:1 Net.Packet.release;
  Sim.Engine.run engine;
  Alcotest.(check int) "sink released the rest" 0 (Net.Packet.outstanding pool)

(* A released packet forwarded by mistake fails loudly at the next
   node instead of travelling on as someone else's packet. *)
let test_node_released_packet_fails () =
  let _, topology, a, _, link = simple_net () in
  a.Net.Node.fib <- [| Some link |];
  let p = Net.Packet.alloc (Net.Topology.pool topology) ~id:1 ~flow:1 ~created:0. in
  p.Net.Packet.dst <- 0;
  Net.Packet.release p;
  Alcotest.check_raises "released" (Failure "Node A: no FIB entry for host -2")
    (fun () -> Net.Node.receive a p)

(* A destination table cannot send one host's packets two ways from
   the same node; paths that agree share the entry. *)
let test_topology_conflicting_paths () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let n name = Net.Topology.add_node topology ~kind:Net.Node.Core name in
  let x = n "x" and y = n "y" and a = n "a" and b = n "b" and c = n "c" in
  let d = n "d" in
  List.iter
    (fun (src, dst) ->
      ignore
        (Net.Topology.add_link topology ~src ~dst ~bandwidth:1e6 ~delay:0.01
           ~qdisc:(Net.Qdisc.droptail ~capacity:10)))
    [ (x, a); (y, a); (a, b); (a, c); (b, d); (c, d) ];
  Net.Topology.route_paths topology [ [ x; a; b; d ]; [ y; a; b; d ] ];
  Alcotest.check_raises "two links to one host"
    (Failure "Topology.route_paths: node a reaches host 0 on two links (a->b, a->c)")
    (fun () -> Net.Topology.route_paths topology [ [ y; a; c; d ] ])

let test_topology_duplicate_node () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  ignore (Net.Topology.add_node topology ~kind:Net.Node.Core "C1");
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.add_node: duplicate node C1") (fun () ->
      ignore (Net.Topology.add_node topology ~kind:Net.Node.Core "C1"))

let test_topology_duplicate_link () =
  let _, topology, a, b, _ = simple_net () in
  Alcotest.check_raises "duplicate link"
    (Invalid_argument "Topology.add_link: duplicate link A->B") (fun () ->
      ignore
        (Net.Topology.add_link topology ~src:a ~dst:b ~bandwidth:1. ~delay:0.
           ~qdisc:(Net.Qdisc.droptail ~capacity:1)))

let test_topology_path_helpers () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let n name = Net.Topology.add_node topology ~kind:Net.Node.Core name in
  let a = n "a" and b = n "b" and c = n "c" in
  let link ~src ~dst delay =
    ignore
      (Net.Topology.add_link topology ~src ~dst ~bandwidth:1e6 ~delay
         ~qdisc:(Net.Qdisc.droptail ~capacity:10))
  in
  link ~src:a ~dst:b 0.01;
  link ~src:b ~dst:c 0.02;
  Alcotest.(check int) "two hops" 2 (List.length (Net.Topology.path_links topology [ a; b; c ]));
  check_float "total delay" 0.03 (Net.Topology.path_delay topology [ a; b; c ]);
  Alcotest.(check bool) "find_link" true
    (Net.Topology.find_link topology ~src:a ~dst:b <> None);
  Alcotest.(check bool) "reverse missing" true
    (Net.Topology.find_link topology ~src:b ~dst:a = None)

let test_flow_validation () =
  let _, _, a, b, _ = simple_net () in
  Alcotest.check_raises "weight" (Invalid_argument "Flow.make: weight must be positive")
    (fun () -> ignore (Net.Flow.make ~id:1 ~weight:0. ~path:[ a; b ]));
  Alcotest.check_raises "short path" (Invalid_argument "Flow.make: path needs >= 2 nodes")
    (fun () -> ignore (Net.Flow.make ~id:1 ~weight:1. ~path:[ a ]))

(* A NaN weight used to pass the sign check (every comparison with NaN
   is false), and Corelite then put a marker on every packet. *)
let test_flow_non_finite_weight () =
  let _, _, a, b, _ = simple_net () in
  List.iter
    (fun weight ->
      Alcotest.check_raises
        (Printf.sprintf "weight %g" weight)
        (Invalid_argument "Flow.make: weight must be finite")
        (fun () -> ignore (Net.Flow.make ~id:1 ~weight ~path:[ a; b ])))
    [ nan; infinity ]

let test_flow_upstream_delay () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let n name = Net.Topology.add_node topology ~kind:Net.Node.Core name in
  let a = n "a" and b = n "b" and c = n "c" in
  let mk ~src ~dst delay =
    Net.Topology.add_link topology ~src ~dst ~bandwidth:1e6 ~delay
      ~qdisc:(Net.Qdisc.droptail ~capacity:10)
  in
  let l1 = mk ~src:a ~dst:b 0.01 in
  let l2 = mk ~src:b ~dst:c 0.02 in
  let flow = Net.Flow.make ~id:1 ~weight:1. ~path:[ a; b; c ] in
  Alcotest.(check bool) "first hop: zero" true
    (Net.Flow.upstream_delay flow topology l1 = Some 0.);
  (match Net.Flow.upstream_delay flow topology l2 with
  | Some d -> check_float "second hop" 0.01 d
  | None -> Alcotest.fail "expected delay");
  let other =
    Net.Topology.add_link topology ~src:c ~dst:a ~bandwidth:1e6 ~delay:0.
      ~qdisc:(Net.Qdisc.droptail ~capacity:10)
  in
  Alcotest.(check bool) "not on path" true
    (Net.Flow.upstream_delay flow topology other = None);
  (* The flat table edge agents time feedback with agrees with the
     path walk bit for bit, and reads 0 off the path. *)
  let delays = Net.Flow.delays flow topology in
  List.iter
    (fun l ->
      Alcotest.(check bool) "table = walk" true
        (Some (Net.Flow.delay_to delays ~link_id:l.Net.Link.id)
        = Net.Flow.upstream_delay flow topology l))
    [ l1; l2 ];
  check_float "table off path" 0.
    (Net.Flow.delay_to delays ~link_id:other.Net.Link.id)

(* ------------------------------------------------------------------ *)
(* Qdisc: DRR *)

let test_drr_weighted_service () =
  let q = Net.Qdisc.drr ~weight:(fun flow -> float_of_int flow) ~capacity:100 () in
  (* Backlog flows 1 and 2 (weights 1:2), then drain: long-run service
     must split 1:2. *)
  for i = 1 to 30 do
    ignore (q.Net.Qdisc.enqueue (mk_packet ~id:i ~flow:1 ()));
    ignore (q.Net.Qdisc.enqueue (mk_packet ~id:(100 + i) ~flow:2 ()))
  done;
  let flow2 = ref 0 in
  for _ = 1 to 30 do
    match q.Net.Qdisc.dequeue () with
    | Some p -> if p.Net.Packet.flow = 2 then incr flow2
    | None -> Alcotest.fail "drained early"
  done;
  Alcotest.(check int) "2/3 of service to weight 2" 20 !flow2

let test_drr_fifo_within_flow () =
  let q = Net.Qdisc.drr ~weight:(fun _ -> 1.) ~capacity:10 () in
  for i = 1 to 3 do
    ignore (q.Net.Qdisc.enqueue (mk_packet ~id:i ~flow:7 ()))
  done;
  let order =
    List.init 3 (fun _ ->
        match q.Net.Qdisc.dequeue () with Some p -> p.Net.Packet.id | None -> -1)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] order;
  Alcotest.(check bool) "empty" true (q.Net.Qdisc.dequeue () = None)

let test_drr_per_flow_capacity () =
  let q = Net.Qdisc.drr ~weight:(fun _ -> 1.) ~capacity:2 () in
  ignore (q.Net.Qdisc.enqueue (mk_packet ~id:1 ~flow:1 ()));
  ignore (q.Net.Qdisc.enqueue (mk_packet ~id:2 ~flow:1 ()));
  Alcotest.(check bool) "flow 1 full" true
    (q.Net.Qdisc.enqueue (mk_packet ~id:3 ~flow:1 ()) = Net.Qdisc.Dropped);
  Alcotest.(check bool) "flow 2 has its own queue" true
    (q.Net.Qdisc.enqueue (mk_packet ~id:4 ~flow:2 ()) = Net.Qdisc.Enqueued);
  Alcotest.(check int) "aggregate length" 3 (q.Net.Qdisc.length ())

let test_drr_fractional_weight () =
  (* Weight 0.5 vs 1: quantum 500 vs 1000 bytes with 1000-byte packets:
     the light flow is served every other round: service 1:2. *)
  let q =
    Net.Qdisc.drr ~weight:(fun flow -> if flow = 1 then 0.5 else 1.) ~capacity:100 ()
  in
  for i = 1 to 30 do
    ignore (q.Net.Qdisc.enqueue (mk_packet ~id:i ~flow:1 ()));
    ignore (q.Net.Qdisc.enqueue (mk_packet ~id:(100 + i) ~flow:2 ()))
  done;
  let flow1 = ref 0 in
  for _ = 1 to 30 do
    match q.Net.Qdisc.dequeue () with
    | Some p -> if p.Net.Packet.flow = 1 then incr flow1
    | None -> Alcotest.fail "drained early"
  done;
  Alcotest.(check int) "1/3 of service to half weight" 10 !flow1

let test_drr_validation () =
  Alcotest.check_raises "capacity" (Invalid_argument "Qdisc.drr: capacity must be positive")
    (fun () -> ignore (Net.Qdisc.drr ~weight:(fun _ -> 1.) ~capacity:0 ()));
  Alcotest.check_raises "quantum" (Invalid_argument "Qdisc.drr: quantum must be positive")
    (fun () ->
      ignore (Net.Qdisc.drr ~weight:(fun _ -> 1.) ~quantum_unit:0 ~capacity:1 ()));
  (* Weight is per-flow and only consulted when the flow takes the
     service token, so bad weights surface at dequeue. *)
  let reject name w =
    let q = Net.Qdisc.drr ~weight:(fun _ -> w) ~capacity:1 () in
    ignore (q.Net.Qdisc.enqueue (mk_packet ~id:1 ~flow:1 ()));
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf
            "Qdisc.drr: weight of flow 1 must be finite and positive (got %h)" w))
      (fun () -> ignore (q.Net.Qdisc.dequeue ()))
  in
  reject "zero weight" 0.;
  reject "negative weight" (-1.);
  reject "nan weight" Float.nan;
  reject "infinite weight" Float.infinity

(* ------------------------------------------------------------------ *)
(* Probe *)

let test_probe_tracks_throughput_and_queue () =
  (* 8000 bit/s, 1 KB packets: 1 packet/s service. Offer 4 packets at
     t=0: the queue drains one per second. *)
  let engine, topology, _, _, link = simple_net ~capacity:10 () in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> ());
  let probe = Net.Probe.attach ~engine ~period:1. link in
  (* Send at t = 0.5 so departures (1.5, 2.5, 3.5, 4.5) fall strictly
     between the probe's whole-second samples. *)
  ignore
    (Sim.Engine.schedule engine ~delay:0.5 (fun () ->
         for i = 1 to 4 do
           Net.Link.send link (mk_packet ~id:i ())
         done));
  Sim.Engine.run_until engine 6.;
  let throughput = Sim.Timeseries.to_array (Net.Probe.throughput_series probe) in
  (* Samples at 2..5 s each saw one departure. *)
  Alcotest.(check bool) "served 1 pkt/s while busy" true
    (Array.for_all
       (fun (t, v) ->
         if t >= 2. && t <= 5. then Sim.Floats.near v 1. else Sim.Floats.is_zero v)
       throughput);
  Alcotest.(check int) "peak queue was 3 waiting" 3 (Net.Probe.peak_queue probe);
  (* 4 packets in 6 seconds over a 1 pkt/s link. *)
  Alcotest.(check bool) "utilization ~2/3" true
    (Float.abs (Net.Probe.mean_utilization probe -. (4. /. 6.)) < 0.01)

let test_probe_counts_drops () =
  let engine, topology, _, _, link = simple_net ~capacity:1 () in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> ());
  let probe = Net.Probe.attach ~engine ~period:1. link in
  for i = 1 to 5 do
    Net.Link.send link (mk_packet ~id:i ())
  done;
  Sim.Engine.run_until engine 1.5;
  (match Sim.Timeseries.to_array (Net.Probe.drop_series probe) with
  | [||] -> Alcotest.fail "no sample"
  | samples -> check_float "3 drops in the first second" 3. (snd samples.(0)));
  Net.Probe.detach probe;
  Sim.Engine.run_until engine 5.;
  Alcotest.(check int) "no samples after detach" 1
    (Sim.Timeseries.length (Net.Probe.drop_series probe))

let test_probe_validation () =
  let engine, _, _, _, link = simple_net () in
  Alcotest.check_raises "bad period" (Invalid_argument "Probe.attach: period must be positive")
    (fun () -> ignore (Net.Probe.attach ~engine ~period:0. link))

(* ------------------------------------------------------------------ *)
(* Routing *)

(* A diamond with asymmetric delays:
     a -> b (10ms) -> d (10ms)   total 20ms, 2 hops
     a -> c (5ms)  -> d (5ms)    total 10ms, 2 hops
     a -> d (50ms)               1 hop but slow *)
let diamond () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let n name = Net.Topology.add_node topology ~kind:Net.Node.Core name in
  let a = n "a" and b = n "b" and c = n "c" and d = n "d" in
  let link ~src ~dst delay =
    ignore
      (Net.Topology.add_link topology ~src ~dst ~bandwidth:1e6 ~delay
         ~qdisc:(Net.Qdisc.droptail ~capacity:10))
  in
  link ~src:a ~dst:b 0.010;
  link ~src:b ~dst:d 0.010;
  link ~src:a ~dst:c 0.005;
  link ~src:c ~dst:d 0.005;
  link ~src:a ~dst:d 0.050;
  (topology, a, b, c, d)

let path_names = function
  | Some nodes -> String.concat "-" (List.map (fun n -> n.Net.Node.name) nodes)
  | None -> "(none)"

let test_routing_picks_min_delay () =
  let topology, a, _, _, d = diamond () in
  Alcotest.(check string) "via c" "a-c-d"
    (path_names (Net.Routing.shortest_path topology ~src:a ~dst:d))

let test_routing_trivial_and_unreachable () =
  let topology, a, b, _, d = diamond () in
  Alcotest.(check string) "self" "a" (path_names (Net.Routing.shortest_path topology ~src:a ~dst:a));
  (* No link enters [a]. *)
  Alcotest.(check string) "unreachable" "(none)"
    (path_names (Net.Routing.shortest_path topology ~src:d ~dst:a));
  Alcotest.(check string) "one hop" "b-d"
    (path_names (Net.Routing.shortest_path topology ~src:b ~dst:d))

let test_routing_hop_tiebreak () =
  (* Equal delay, different hop counts: prefer fewer hops. *)
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let n name = Net.Topology.add_node topology ~kind:Net.Node.Core name in
  let a = n "a" and b = n "b" and c = n "c" in
  let link ~src ~dst delay =
    ignore
      (Net.Topology.add_link topology ~src ~dst ~bandwidth:1e6 ~delay
         ~qdisc:(Net.Qdisc.droptail ~capacity:10))
  in
  link ~src:a ~dst:c 0.010;
  link ~src:a ~dst:b 0.005;
  link ~src:b ~dst:c 0.005;
  Alcotest.(check string) "direct link wins the tie" "a-c"
    (path_names (Net.Routing.shortest_path topology ~src:a ~dst:c))

let test_routing_paths_from_consistent () =
  let topology, a, b, c, d = diamond () in
  let route = Net.Routing.paths_from topology ~src:a in
  List.iter
    (fun dst ->
      Alcotest.(check string) ("to " ^ dst.Net.Node.name)
        (path_names (Net.Routing.shortest_path topology ~src:a ~dst))
        (path_names (route dst)))
    [ a; b; c; d ]

(* ------------------------------------------------------------------ *)
(* Source *)

let make_source ?(params = Net.Source.default_params) ?epoch_offset ~collect engine =
  let sent = ref [] in
  let src =
    Net.Source.create ~engine ?epoch_offset ~params
      ~emit:(fun ~now -> sent := now :: !sent)
      ~collect ()
  in
  (src, sent)

let no_feedback () = 0

let test_source_paces_at_rate () =
  let engine = Sim.Engine.create () in
  let params =
    { Net.Source.default_params with Net.Source.initial_rate = 10.; ss_thresh = 5. }
  in
  (* initial >= ss_thresh puts the source directly in linear mode; with
     no feedback it climbs by alpha per epoch, so count only early
     packets. *)
  let src, sent = make_source ~params ~collect:no_feedback engine in
  Net.Source.start src;
  Sim.Engine.run_until engine 0.49;
  Net.Source.stop src;
  (* 10 pkt/s for ~0.5 s -> 5-6 sends (first fires immediately). *)
  Alcotest.(check bool) "roughly paced" true
    (List.length !sent >= 5 && List.length !sent <= 7)

let test_source_slow_start_doubles () =
  let engine = Sim.Engine.create () in
  let src, _ = make_source ~collect:no_feedback engine in
  Net.Source.start src;
  Alcotest.(check bool) "starts in slow-start" true (Net.Source.phase src = Net.Source.Slow_start);
  check_float "initial rate" 1. (Net.Source.rate src);
  Sim.Engine.run_until engine 1.05;
  check_float "doubled once" 2. (Net.Source.rate src);
  Sim.Engine.run_until engine 3.05;
  check_float "doubled thrice" 8. (Net.Source.rate src)

let test_source_slow_start_threshold_exit () =
  let engine = Sim.Engine.create () in
  let src, _ = make_source ~collect:no_feedback engine in
  Net.Source.start src;
  (* 1 -> 2 -> 4 -> 8 -> 16 -> 32 -> (64 > 32: halve, exit). *)
  Sim.Engine.run_until engine 5.95;
  check_float "still doubling" 32. (Net.Source.rate src);
  Alcotest.(check bool) "still slow-start" true
    (Net.Source.phase src = Net.Source.Slow_start);
  Sim.Engine.run_until engine 6.05;
  Alcotest.(check bool) "exited" true (Net.Source.phase src = Net.Source.Linear);
  (* An adaptation epoch also ends at exactly t = 6, adding alpha. *)
  check_float "halved back (plus one epoch tick)" 33. (Net.Source.rate src)

let test_source_congestion_exits_slow_start () =
  let engine = Sim.Engine.create () in
  let src, _ = make_source ~collect:no_feedback engine in
  Net.Source.start src;
  Sim.Engine.run_until engine 2.5;
  check_float "rate before" 4. (Net.Source.rate src);
  Net.Source.signal_congestion src;
  Alcotest.(check bool) "linear now" true (Net.Source.phase src = Net.Source.Linear);
  check_float "halved" 2. (Net.Source.rate src);
  (* No further doubling. *)
  Sim.Engine.run_until engine 6.;
  Alcotest.(check bool) "rate grew linearly" true (Net.Source.rate src < 32.)

let test_source_linear_increase () =
  let engine = Sim.Engine.create () in
  let params =
    { Net.Source.default_params with Net.Source.initial_rate = 40.; ss_thresh = 32. }
  in
  let src, _ = make_source ~params ~collect:no_feedback engine in
  Net.Source.start src;
  Sim.Engine.run_until engine 2.01;
  (* 4 epochs of 0.5 s -> +4. *)
  check_float "alpha per epoch" 44. (Net.Source.rate src)

let test_source_decrease_on_feedback () =
  let engine = Sim.Engine.create () in
  let pending = ref 0 in
  let collect () =
    let m = !pending in
    pending := 0;
    m
  in
  let params =
    { Net.Source.default_params with Net.Source.initial_rate = 40.; ss_thresh = 32. }
  in
  let sent = ref [] in
  let src =
    Net.Source.create ~engine ~params
      ~emit:(fun ~now -> sent := now :: !sent)
      ~collect ()
  in
  Net.Source.start src;
  ignore (Sim.Engine.schedule engine ~delay:0.4 (fun () -> pending := 5));
  Sim.Engine.run_until engine 0.55;
  (* One epoch with m = 5: 40 - 5*beta = 35. *)
  check_float "beta decrease" 35. (Net.Source.rate src)

let test_source_floor_clamps_decrease () =
  let engine = Sim.Engine.create () in
  let pending = ref 0 in
  let collect () =
    let m = !pending in
    pending := 0;
    m
  in
  let params =
    {
      Net.Source.default_params with
      Net.Source.initial_rate = 40.;
      ss_thresh = 32.;
      floor = 30.;
    }
  in
  let src =
    Net.Source.create ~engine ~params ~emit:(fun ~now:_ -> ()) ~collect ()
  in
  Net.Source.start src;
  ignore (Sim.Engine.schedule engine ~delay:0.4 (fun () -> pending := 100));
  Sim.Engine.run_until engine 0.55;
  check_float "clamped to contract floor" 30. (Net.Source.rate src)

let test_source_restart_resets () =
  let engine = Sim.Engine.create () in
  let src, _ = make_source ~collect:no_feedback engine in
  Net.Source.start src;
  Sim.Engine.run_until engine 4.1;
  Net.Source.stop src;
  Alcotest.(check bool) "stopped" false (Net.Source.running src);
  Net.Source.start src;
  check_float "rate reset" 1. (Net.Source.rate src);
  Alcotest.(check bool) "slow-start again" true
    (Net.Source.phase src = Net.Source.Slow_start)

let test_source_stop_stops_emitting () =
  let engine = Sim.Engine.create () in
  let src, sent = make_source ~collect:no_feedback engine in
  Net.Source.start src;
  Sim.Engine.run_until engine 2.;
  Net.Source.stop src;
  let count = List.length !sent in
  Sim.Engine.run_until engine 10.;
  Alcotest.(check int) "no more sends" count (List.length !sent)

let test_source_emitted_counts_across_restarts () =
  let engine = Sim.Engine.create () in
  let src, _ = make_source ~collect:no_feedback engine in
  Net.Source.start src;
  Sim.Engine.run_until engine 2.;
  Net.Source.stop src;
  let first_life = Net.Source.emitted src in
  Net.Source.start src;
  Sim.Engine.run_until engine 4.;
  Alcotest.(check bool) "keeps counting" true (Net.Source.emitted src > first_life)

(* Feedback-silence recovery (robustness extension): after
   [silence_epochs] feedback-free linear epochs the additive probe
   turns multiplicative, and any feedback snaps it back to additive. *)
let test_source_silence_recovery () =
  let engine = Sim.Engine.create () in
  let params =
    {
      Net.Source.default_params with
      Net.Source.initial_rate = 40.;
      ss_thresh = 32.;
      silence_epochs = 2;
      restore = 2.;
    }
  in
  let m = ref 0 in
  let src, _ = make_source ~params ~collect:(fun () -> let v = !m in m := 0; v) engine in
  Net.Source.start src;
  (* Epochs at 0.5/1.0/1.5/2.0 s, all silent: 40 -> +1 -> 41 (silent=1),
     then doubling once the streak reaches 2: 82, 164, 328. *)
  Sim.Engine.run_until engine 2.01;
  check_float "multiplicative restoration" 328. (Net.Source.rate src);
  (* Feedback ends the silence: beta decrease now, additive probe after. *)
  m := 1;
  Sim.Engine.run_until engine 2.51;
  check_float "feedback throttles" 327. (Net.Source.rate src);
  Sim.Engine.run_until engine 3.01;
  check_float "streak reset, additive again" 328. (Net.Source.rate src)

let test_source_rejects_bad_recovery_params () =
  let engine = Sim.Engine.create () in
  let mk params () =
    ignore
      (Net.Source.create ~engine ~params
         ~emit:(fun ~now:_ -> ())
         ~collect:no_feedback ())
  in
  Alcotest.check_raises "negative silence_epochs"
    (Invalid_argument "Source.create: silence_epochs must be non-negative")
    (mk { Net.Source.default_params with Net.Source.silence_epochs = -1 });
  Alcotest.check_raises "restore <= 1"
    (Invalid_argument "Source.create: restore must be a finite factor > 1")
    (mk { Net.Source.default_params with Net.Source.silence_epochs = 3; restore = 1. });
  Alcotest.check_raises "nan restore"
    (Invalid_argument "Source.create: restore must be a finite factor > 1")
    (mk
       { Net.Source.default_params with Net.Source.silence_epochs = 3; restore = Float.nan })

(* One regression per validated boundary: non-positive (or non-finite)
   rates and periods must raise instead of silently producing a nan
   pacing schedule. *)
let test_source_rejects_bad_params () =
  let engine = Sim.Engine.create () in
  let rejects descr msg params =
    Alcotest.check_raises descr (Invalid_argument ("Source.create: " ^ msg))
      (fun () ->
        ignore
          (Net.Source.create ~engine ~params
             ~emit:(fun ~now:_ -> ())
             ~collect:no_feedback ()))
  in
  let d = Net.Source.default_params in
  rejects "zero initial_rate" "initial_rate must be positive"
    { d with Net.Source.initial_rate = 0. };
  rejects "nan initial_rate" "initial_rate must be positive"
    { d with Net.Source.initial_rate = Float.nan };
  rejects "negative epoch" "epoch must be positive"
    { d with Net.Source.epoch = -0.5 };
  rejects "nan epoch" "epoch must be positive"
    { d with Net.Source.epoch = Float.nan };
  rejects "zero alpha" "alpha must be positive" { d with Net.Source.alpha = 0. };
  rejects "negative beta" "beta must be positive"
    { d with Net.Source.beta = -1. };
  rejects "zero ss_thresh" "ss_thresh must be positive"
    { d with Net.Source.ss_thresh = 0. };
  rejects "infinite ss_period" "ss_period must be positive"
    { d with Net.Source.ss_period = Float.infinity };
  rejects "negative min_rate" "min_rate must be non-negative"
    { d with Net.Source.min_rate = -0.5 };
  rejects "negative floor" "floor must be non-negative"
    { d with Net.Source.floor = -1. };
  rejects "nan floor" "floor must be non-negative"
    { d with Net.Source.floor = Float.nan }

let test_source_rejects_bad_offset () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "offset >= epoch"
    (Invalid_argument "Source.create: epoch_offset out of [0, epoch)") (fun () ->
      ignore
        (Net.Source.create ~engine ~epoch_offset:1.
           ~params:Net.Source.default_params
           ~emit:(fun ~now:_ -> ())
           ~collect:no_feedback ()))

let test_source_epoch_offset_shifts_adaptation () =
  let engine = Sim.Engine.create () in
  let params =
    { Net.Source.default_params with Net.Source.initial_rate = 40.; ss_thresh = 32. }
  in
  let src, _ = make_source ~params ~epoch_offset:0.25 ~collect:no_feedback engine in
  Net.Source.start src;
  Sim.Engine.run_until engine 0.6;
  (* Epoch boundary at 0.75, not 0.5: rate unchanged so far. *)
  check_float "no tick yet" 40. (Net.Source.rate src);
  Sim.Engine.run_until engine 0.8;
  check_float "tick at 0.75" 41. (Net.Source.rate src)

(* Reference for the timer property below: the source's epoch and
   slow-start timers as cancellable [Engine.every] handles, cancelled on
   [stop] and on the slow-start exit, with [Net.Source]'s adaptation
   rules copied unchanged (silence recovery left out). [Net.Source]
   drives the same timers with persistent closures and pending counts,
   and must fire the same events in the same order. *)
module Every_source = struct
  type t = {
    engine : Sim.Engine.t;
    id : int;
    params : Net.Source.params;
    epoch_offset : float;
    collect : unit -> int;
    mutable rate : float;
    mutable phase : Net.Source.phase;
    mutable running : bool;
    mutable active : bool;
    mutable emitted : int;
    mutable pacing_pending : int;
    mutable pace_ev : unit -> unit;
    mutable epoch_timer : Sim.Engine.handle option;
    mutable ss_timer : Sim.Engine.handle option;
  }

  let note_rate t =
    let trace = Sim.Engine.trace t.engine in
    if Sim.Trace.want trace Sim.Trace.Rate_update then
      Sim.Trace.record trace ~time:(Sim.Engine.now t.engine) Sim.Trace.Rate_update ~a:t.id
        ~b:0 ~x:t.rate
        ~y:(match t.phase with Net.Source.Slow_start -> 0. | Net.Source.Linear -> 1.)

  let schedule_pace t =
    t.pacing_pending <- t.pacing_pending + 1;
    Sim.Engine.schedule_unit t.engine ~delay:(1. /. Float.max t.rate 1e-6) t.pace_ev

  let emit_one t = if t.active then t.emitted <- t.emitted + 1

  let pace t =
    t.pacing_pending <- t.pacing_pending - 1;
    if t.running && t.pacing_pending = 0 then begin
      emit_one t;
      schedule_pace t
    end

  let create ~engine ~id ~epoch_offset ~params ~collect =
    let t =
      {
        engine; id; params; epoch_offset; collect; rate = params.Net.Source.initial_rate;
        phase = Net.Source.Slow_start; running = false; active = true; emitted = 0;
        pacing_pending = 0; pace_ev = ignore; epoch_timer = None; ss_timer = None;
      }
    in
    t.pace_ev <- (fun () -> pace t);
    t

  let rate_floor t = Float.max t.params.Net.Source.min_rate t.params.Net.Source.floor

  let exit_slow_start t =
    if t.phase = Net.Source.Slow_start then begin
      ignore (t.collect ());
      t.rate <- Float.max (rate_floor t) (t.rate /. 2.);
      t.phase <- Net.Source.Linear;
      note_rate t;
      match t.ss_timer with
      | Some h ->
        Sim.Engine.cancel h;
        t.ss_timer <- None
      | None -> ()
    end

  let signal_congestion t = if t.running then exit_slow_start t

  let on_epoch t () =
    let m = t.collect () in
    if t.active then
      match t.phase with
      | Net.Source.Slow_start -> if m > 0 then exit_slow_start t
      | Net.Source.Linear ->
        if m = 0 then t.rate <- t.rate +. t.params.Net.Source.alpha
        else
          t.rate <-
            Float.max (rate_floor t) (t.rate -. (t.params.Net.Source.beta *. float_of_int m));
        note_rate t

  let on_ss_tick t () =
    if t.phase = Net.Source.Slow_start then begin
      t.rate <- t.rate *. 2.;
      note_rate t;
      if t.rate > t.params.Net.Source.ss_thresh then exit_slow_start t
    end

  let stop t =
    if t.running then begin
      t.running <- false;
      let cancel = function Some h -> Sim.Engine.cancel h | None -> () in
      cancel t.epoch_timer;
      cancel t.ss_timer;
      t.epoch_timer <- None;
      t.ss_timer <- None
    end

  let start t =
    stop t;
    ignore (t.collect ());
    let p = t.params in
    t.rate <- Float.max p.Net.Source.initial_rate p.Net.Source.floor;
    t.phase <-
      (if t.rate >= p.Net.Source.ss_thresh then Net.Source.Linear else Net.Source.Slow_start);
    t.running <- true;
    note_rate t;
    let now = Sim.Engine.now t.engine in
    t.epoch_timer <-
      Some
        (Sim.Engine.every t.engine
           ~start:(now +. p.Net.Source.epoch +. t.epoch_offset)
           ~period:p.Net.Source.epoch (on_epoch t));
    if t.phase = Net.Source.Slow_start then
      t.ss_timer <-
        Some
          (Sim.Engine.every t.engine
             ~start:(now +. p.Net.Source.ss_period +. t.epoch_offset)
             ~period:p.Net.Source.ss_period (on_ss_tick t));
    emit_one t;
    schedule_pace t
end

type source_op = Start | Stop | Signal | Active of bool | Feedback of int

let source_op_name = function
  | Start -> "start"
  | Stop -> "stop"
  | Signal -> "signal"
  | Active b -> Printf.sprintf "active %b" b
  | Feedback n -> Printf.sprintf "feedback %d" n

(* Times and periods are multiples of 1/8 s, so schedule operations
   often land on the same instant as a timer firing and the FIFO order
   among equal times is exercised too. *)
let tick = 0.125

let horizon = 12.

(* Drives one source through [ops] (each at [k * tick]) after a start at
   0, and returns its Rate_update records, the events the engine
   executed and scheduled, and the packets emitted. *)
let drive_source ~start ~stop ~signal ~set_active ~emitted engine pending ops =
  Sim.Trace.enable ~capacity:4096 ~kinds:[ Sim.Trace.Rate_update ] (Sim.Engine.trace engine);
  List.iter
    (fun (k, op) ->
      ignore
        (Sim.Engine.schedule_at engine ~time:(tick *. float_of_int k) (fun () ->
             match op with
             | Start -> start ()
             | Stop -> stop ()
             | Signal -> signal ()
             | Active b -> set_active b
             | Feedback n -> pending := !pending + n)))
    ((0, Start) :: ops);
  Sim.Engine.run_until engine horizon;
  let records = ref [] in
  Sim.Trace.iter (Sim.Engine.trace engine) (fun e -> records := e :: !records);
  ( List.rev !records,
    Sim.Engine.executed engine,
    Sim.Engine.events_scheduled engine,
    emitted () )

let prop_source_timers_match_every =
  let collect pending () =
    let m = !pending in
    pending := 0;
    m
  in
  let params_gen =
    QCheck.Gen.(
      map
        (fun (((epoch, ss_period), offset), ((initial_rate, ss_thresh), floor)) ->
          ( {
              Net.Source.default_params with
              Net.Source.epoch = tick *. float_of_int epoch;
              ss_period = tick *. float_of_int ss_period;
              initial_rate;
              ss_thresh;
              floor;
            },
            (* epoch_offset in [0, epoch) *)
            tick *. float_of_int (offset mod epoch) ))
        (pair
           (pair (pair (int_range 1 8) (int_range 1 8)) (int_range 0 7))
           (pair
              (pair (oneofl [ 1.; 4.; 40. ]) (oneofl [ 8.; 32. ]))
              (oneofl [ 0.; 5.; 50. ]))))
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, return Start);
          (2, return Stop);
          (2, return Signal);
          (2, map (fun b -> Active b) bool);
          (3, map (fun n -> Feedback n) (int_range 1 3));
        ])
  in
  let ops_gen =
    QCheck.Gen.(
      map
        (List.stable_sort (fun (a, _) (b, _) -> compare a b))
        (list_size (int_range 0 25) (pair (int_range 0 95) op_gen)))
  in
  let print ((params, offset), ops) =
    Printf.sprintf "epoch=%g ss_period=%g offset=%g initial=%g ss_thresh=%g floor=%g ops=[%s]"
      params.Net.Source.epoch params.Net.Source.ss_period offset
      params.Net.Source.initial_rate params.Net.Source.ss_thresh params.Net.Source.floor
      (String.concat "; "
         (List.map (fun (k, op) -> Printf.sprintf "%g %s" (tick *. float_of_int k) (source_op_name op)) ops))
  in
  QCheck.Test.make ~count:300
    ~name:"source timers fire like Engine.every handles under random start/stop schedules"
    (QCheck.make ~print (QCheck.Gen.pair params_gen ops_gen))
    (fun ((params, epoch_offset), ops) ->
      let engine = Sim.Engine.create () in
      let pending = ref 0 in
      let src =
        Net.Source.create ~engine ~id:7 ~epoch_offset ~params
          ~emit:(fun ~now:_ -> ())
          ~collect:(collect pending) ()
      in
      let got =
        drive_source engine pending ops
          ~start:(fun () -> Net.Source.start src)
          ~stop:(fun () -> Net.Source.stop src)
          ~signal:(fun () -> Net.Source.signal_congestion src)
          ~set_active:(Net.Source.set_active src)
          ~emitted:(fun () -> Net.Source.emitted src)
      in
      let engine = Sim.Engine.create () in
      let pending = ref 0 in
      let r = Every_source.create ~engine ~id:7 ~epoch_offset ~params ~collect:(collect pending) in
      let want =
        drive_source engine pending ops
          ~start:(fun () -> Every_source.start r)
          ~stop:(fun () -> Every_source.stop r)
          ~signal:(fun () -> Every_source.signal_congestion r)
          ~set_active:(fun b -> r.Every_source.active <- b)
          ~emitted:(fun () -> r.Every_source.emitted)
      in
      let records, executed, scheduled, emitted = got in
      let records', executed', scheduled', emitted' = want in
      if records <> records' then QCheck.Test.fail_report "Rate_update records differ";
      if executed <> executed' then
        QCheck.Test.fail_reportf "executed %d, reference %d" executed executed';
      if scheduled <> scheduled' then
        QCheck.Test.fail_reportf "scheduled %d, reference %d" scheduled scheduled';
      emitted = emitted')

(* ------------------------------------------------------------------ *)
(* Invariant auditing *)

(* A qdisc whose bookkeeping lies: it claims [Enqueued] without growing
   the queue and hands out packets it never stored. *)
let lying_qdisc () =
  {
    Net.Qdisc.enqueue = (fun _ -> Net.Qdisc.Enqueued);
    dequeue = (fun () -> Some (mk_packet ()));
    length = (fun () -> 0);
    bytes = (fun () -> 0);
    kind = "lying";
  }

let expect_violation what f =
  match f () with
  | exception Sim.Invariant.Violation msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s names the broken property (%s)" what msg)
      true
      (String.length msg > 0)
  | _ -> Alcotest.fail (what ^ ": expected Sim.Invariant.Violation")

let test_qdisc_invariants_catch_lies () =
  let q = Net.Qdisc.with_invariants (lying_qdisc ()) in
  expect_violation "phantom enqueue" (fun () -> q.Net.Qdisc.enqueue (mk_packet ()));
  expect_violation "phantom dequeue" (fun () -> q.Net.Qdisc.dequeue ())

let test_qdisc_invariants_pass_honest_queue () =
  (* A real droptail under the auditor behaves identically. *)
  let q = Net.Qdisc.with_invariants (Net.Qdisc.droptail ~capacity:2) in
  Alcotest.(check bool) "enqueue ok" true
    (q.Net.Qdisc.enqueue (mk_packet ~id:1 ()) = Net.Qdisc.Enqueued);
  Alcotest.(check bool) "enqueue ok" true
    (q.Net.Qdisc.enqueue (mk_packet ~id:2 ()) = Net.Qdisc.Enqueued);
  Alcotest.(check bool) "overflow dropped" true
    (q.Net.Qdisc.enqueue (mk_packet ~id:3 ()) = Net.Qdisc.Dropped);
  Alcotest.(check int) "two queued" 2 (q.Net.Qdisc.length ());
  Alcotest.(check bool) "fifo out" true
    (match q.Net.Qdisc.dequeue () with Some p -> p.Net.Packet.id = 1 | None -> false)

let test_link_conservation_audited () =
  (* Push a checked link through service, queueing and overflow; the
     conservation audit (arrivals = departures + drops + queued +
     in-service) runs at every stable point and stays silent. *)
  let before = Sim.Invariant.checks_run () in
  let engine, topology, _, _, link = simple_net ~capacity:2 () in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> ());
  for i = 1 to 8 do
    Net.Link.send link (mk_packet ~id:i ())
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "accounting closes" link.Net.Link.arrivals
    (link.Net.Link.departures + link.Net.Link.drops);
  Alcotest.(check bool) "auditing ran" true (Sim.Invariant.checks_run () > before)

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  Alcotest.run "net"
    [
      ( "packet",
        [
          Alcotest.test_case "defaults" `Quick test_packet_defaults;
          Alcotest.test_case "marker" `Quick test_packet_marker;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse resets" `Quick test_pool_reuse_resets;
          qt prop_pool_model;
          Alcotest.test_case "unpooled release" `Quick test_pool_unpooled_release;
          Alcotest.test_case "link drop releases" `Quick test_pool_link_drop_releases;
        ] );
      ( "droptail",
        [
          Alcotest.test_case "fifo" `Quick test_droptail_fifo;
          Alcotest.test_case "capacity" `Quick test_droptail_capacity;
          Alcotest.test_case "bytes" `Quick test_droptail_bytes;
          Alcotest.test_case "bad capacity" `Quick test_droptail_rejects_bad_capacity;
          qt prop_fifo_matches_stdlib_queue;
        ] );
      ( "red",
        [
          Alcotest.test_case "accepts below min" `Quick test_red_accepts_below_min;
          Alcotest.test_case "drops above max" `Quick test_red_drops_above_max;
          Alcotest.test_case "hard limit" `Quick test_red_hard_limit;
          Alcotest.test_case "idle decay" `Quick test_red_idle_decay;
        ] );
      ( "fred",
        [
          Alcotest.test_case "bounds hog flow" `Quick test_fred_bounds_hog_flow;
          Alcotest.test_case "forgets inactive flows" `Quick
            test_fred_forgets_inactive_flows;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery timing" `Quick test_link_delivery_timing;
          Alcotest.test_case "serialization" `Quick test_link_serializes;
          Alcotest.test_case "overflow drops" `Quick test_link_queue_overflow_drops;
          Alcotest.test_case "hook filter" `Quick test_link_hook_filter_drop;
          Alcotest.test_case "queue change hook" `Quick test_link_queue_change_hook;
          Alcotest.test_case "capacity pps" `Quick test_link_capacity_pps;
          Alcotest.test_case "bad args" `Quick test_link_rejects_bad_args;
          Alcotest.test_case "down purges and recovers" `Quick
            test_link_down_purges_and_recovers;
          Alcotest.test_case "send while down" `Quick test_link_send_while_down_drops;
          Alcotest.test_case "reset purges but stays up" `Quick
            test_link_reset_purges_but_stays_up;
          Alcotest.test_case "fault hook strip/lose" `Quick
            test_link_fault_hook_strip_and_lose;
        ] );
      ( "topology",
        [
          Alcotest.test_case "route and sink" `Quick test_node_routes_and_sinks;
          Alcotest.test_case "unknown host" `Quick test_node_unknown_host_fails;
          Alcotest.test_case "fib index out of range" `Quick
            test_node_fib_out_of_range_fails;
          Alcotest.test_case "released packet fails" `Quick
            test_node_released_packet_fails;
          Alcotest.test_case "conflicting paths" `Quick test_topology_conflicting_paths;
          Alcotest.test_case "duplicate node" `Quick test_topology_duplicate_node;
          Alcotest.test_case "duplicate link" `Quick test_topology_duplicate_link;
          Alcotest.test_case "path helpers" `Quick test_topology_path_helpers;
          Alcotest.test_case "flow validation" `Quick test_flow_validation;
          Alcotest.test_case "flow rejects a non-finite weight" `Quick
            test_flow_non_finite_weight;
          Alcotest.test_case "upstream delay" `Quick test_flow_upstream_delay;
        ] );
      ( "drr",
        [
          Alcotest.test_case "weighted service" `Quick test_drr_weighted_service;
          Alcotest.test_case "fifo within flow" `Quick test_drr_fifo_within_flow;
          Alcotest.test_case "per-flow capacity" `Quick test_drr_per_flow_capacity;
          Alcotest.test_case "fractional weight" `Quick test_drr_fractional_weight;
          Alcotest.test_case "validation" `Quick test_drr_validation;
        ] );
      ( "probe",
        [
          Alcotest.test_case "throughput and queue" `Quick
            test_probe_tracks_throughput_and_queue;
          Alcotest.test_case "drops and detach" `Quick test_probe_counts_drops;
          Alcotest.test_case "validation" `Quick test_probe_validation;
        ] );
      ( "classful",
        [
          Alcotest.test_case "priority order" `Quick test_classful_priority_order;
          Alcotest.test_case "wrr proportions" `Quick test_classful_wrr_proportions;
          Alcotest.test_case "aggregate length" `Quick test_classful_aggregate_length;
          Alcotest.test_case "per-class capacity" `Quick test_classful_per_class_capacity;
          Alcotest.test_case "wrr skips empty" `Quick test_classful_wrr_skips_empty_classes;
          Alcotest.test_case "validation" `Quick test_classful_validation;
        ] );
      ( "routing",
        [
          Alcotest.test_case "min delay" `Quick test_routing_picks_min_delay;
          Alcotest.test_case "trivial and unreachable" `Quick
            test_routing_trivial_and_unreachable;
          Alcotest.test_case "hop tiebreak" `Quick test_routing_hop_tiebreak;
          Alcotest.test_case "paths_from consistent" `Quick
            test_routing_paths_from_consistent;
        ] );
      ( "source",
        [
          Alcotest.test_case "paces at rate" `Quick test_source_paces_at_rate;
          Alcotest.test_case "slow-start doubles" `Quick test_source_slow_start_doubles;
          Alcotest.test_case "ss-thresh exit" `Quick test_source_slow_start_threshold_exit;
          Alcotest.test_case "congestion exits ss" `Quick
            test_source_congestion_exits_slow_start;
          Alcotest.test_case "linear increase" `Quick test_source_linear_increase;
          Alcotest.test_case "beta decrease" `Quick test_source_decrease_on_feedback;
          Alcotest.test_case "floor clamp" `Quick test_source_floor_clamps_decrease;
          Alcotest.test_case "restart resets" `Quick test_source_restart_resets;
          Alcotest.test_case "stop stops" `Quick test_source_stop_stops_emitting;
          Alcotest.test_case "emitted counter" `Quick
            test_source_emitted_counts_across_restarts;
          Alcotest.test_case "silence recovery" `Quick test_source_silence_recovery;
          Alcotest.test_case "bad recovery params" `Quick
            test_source_rejects_bad_recovery_params;
          Alcotest.test_case "bad params" `Quick test_source_rejects_bad_params;
          Alcotest.test_case "bad offset" `Quick test_source_rejects_bad_offset;
          Alcotest.test_case "epoch offset" `Quick test_source_epoch_offset_shifts_adaptation;
          qt prop_source_timers_match_every;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "qdisc catches lies" `Quick test_qdisc_invariants_catch_lies;
          Alcotest.test_case "qdisc passes honest queue" `Quick
            test_qdisc_invariants_pass_honest_queue;
          Alcotest.test_case "link conservation audited" `Quick
            test_link_conservation_audited;
        ] );
    ]
