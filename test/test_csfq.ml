(* Tests for the weighted CSFQ baseline: rate estimation, fair-share
   estimation, probabilistic dropping, relabelling, the loss-driven
   edge agent, and end-to-end convergence. *)

let check_float = Alcotest.(check (float 1e-9))

let check_float_eps eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rate_estimator *)

let test_estimator_rejects_bad_k () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Rate_estimator.create: k must be positive") (fun () ->
      ignore (Csfq.Rate_estimator.create ~k:0.))

let test_estimator_converges_to_constant_rate () =
  let e = Csfq.Rate_estimator.create ~k:0.1 in
  (* 100 packets/s for 2 s: far longer than K, so the estimate must be
     within a percent of the true rate. *)
  let rate = ref 0. in
  for i = 1 to 200 do
    Csfq.Rate_estimator.update e ~now:(float_of_int i /. 100.) ~amount:1.;
    rate := Csfq.Rate_estimator.value e
  done;
  check_float_eps 1. "converged to 100/s" 100. !rate

let test_estimator_tracks_rate_change () =
  let e = Csfq.Rate_estimator.create ~k:0.1 in
  for i = 1 to 100 do
    Csfq.Rate_estimator.update e ~now:(float_of_int i /. 100.) ~amount:1.
  done;
  (* Slow down to 10/s; within 1 s (10 K) the estimate must follow. *)
  let rate = ref 0. in
  for i = 1 to 10 do
    Csfq.Rate_estimator.update e ~now:(1. +. (float_of_int i /. 10.)) ~amount:1.;
    rate := Csfq.Rate_estimator.value e
  done;
  check_float_eps 2. "tracked down to 10/s" 10. !rate

let test_estimator_simultaneous_arrivals () =
  let e = Csfq.Rate_estimator.create ~k:0.5 in
  Csfq.Rate_estimator.update e ~now:1. ~amount:1.;
  let before = Csfq.Rate_estimator.value e in
  Csfq.Rate_estimator.update e ~now:1. ~amount:1.;
  check_float "T -> 0 limit adds amount/K" (before +. 2.) (Csfq.Rate_estimator.value e)

let test_estimator_read_decays () =
  let e = Csfq.Rate_estimator.create ~k:0.1 in
  for i = 1 to 100 do
    Csfq.Rate_estimator.update e ~now:(float_of_int i /. 100.) ~amount:1.
  done;
  let live = Csfq.Rate_estimator.value e in
  let after_silence = Csfq.Rate_estimator.read e ~now:2. in
  Alcotest.(check bool) "decayed" true (after_silence < live /. 100.);
  check_float "no data reads zero" 0.
    (Csfq.Rate_estimator.read (Csfq.Rate_estimator.create ~k:1.) ~now:5.)

(* ------------------------------------------------------------------ *)
(* Core *)

(* A single link C1 -> C2 with CSFQ logic; packets are injected directly
   with chosen labels and drained at D. *)
let core_fixture ?(params = Csfq.Params.default) ?(bandwidth = 4_000_000.) () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let c1 = Net.Topology.add_node topology ~kind:Net.Node.Core "C1" in
  let c2 = Net.Topology.add_node topology ~kind:Net.Node.Core "C2" in
  let link =
    Net.Topology.add_link topology ~src:c1 ~dst:c2 ~bandwidth ~delay:0.001
      ~qdisc:(Net.Qdisc.droptail ~capacity:40)
  in
  let delivered = ref 0 in
  Net.Topology.route_paths topology [ [ c1; c2 ] ];
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> incr delivered);
  let core = Csfq.Core.attach ~params ~rng:(Sim.Rng.create 7) link in
  (engine, link, core, delivered)

(* A flow-1 packet for C2, the fixture's only host (index 0). *)
let labelled ~id ~created label =
  let pkt = Net.Packet.make ~id ~flow:1 ~created () in
  pkt.Net.Packet.dst <- 0;
  pkt.Net.Packet.floats.label <- label;
  pkt

let inject engine link ~rate ~label ~until =
  let seq = ref 0 in
  let h =
    Sim.Engine.every engine ~period:(1. /. rate) (fun () ->
        incr seq;
        let pkt = labelled ~id:!seq ~created:(Sim.Engine.now engine) label in
        Net.Link.send link pkt)
  in
  Sim.Engine.schedule_at engine ~time:until (fun () -> Sim.Engine.cancel h)

let test_core_alpha_unset_initially () =
  let _, _, core, _ = core_fixture () in
  Alcotest.(check bool) "no alpha" true (Csfq.Core.alpha core = None);
  Alcotest.(check bool) "not congested" false (Csfq.Core.congested core)

let test_core_uncongested_tracks_max_label () =
  let engine, link, core, _ = core_fixture () in
  (* 100 pkt/s on a 500 pkt/s link: uncongested; alpha becomes the max
     label seen in an estimation window. *)
  inject engine link ~rate:100. ~label:25. ~until:3.;
  Sim.Engine.run_until engine 3.;
  (match Csfq.Core.alpha core with
  | Some alpha -> check_float_eps 1e-6 "alpha = max label" 25. alpha
  | None -> Alcotest.fail "alpha still unset");
  Alcotest.(check int) "nothing dropped early" 0 (Csfq.Core.early_drops core)

let test_core_congestion_detected_and_drops () =
  let engine, link, core, delivered = core_fixture () in
  (* 800 pkt/s offered on a 500 pkt/s link. *)
  inject engine link ~rate:800. ~label:800. ~until:5.;
  Sim.Engine.run_until engine 5.5;
  Alcotest.(check bool) "congested seen" true (Csfq.Core.arrival_rate core > 500.);
  Alcotest.(check bool) "early drops happened" true (Csfq.Core.early_drops core > 0);
  (* Goodput cannot exceed capacity. *)
  Alcotest.(check bool) "goodput bounded" true (!delivered <= 2800)

let test_core_drop_probability_proportional () =
  (* In steady congestion the accepted fraction approximates
     alpha / label. *)
  let engine, link, core, delivered = core_fixture () in
  inject engine link ~rate:1000. ~label:1000. ~until:10.;
  Sim.Engine.run_until engine 10.;
  let accepted = float_of_int !delivered /. 10. in
  ignore core;
  (* One flow at 1000 on a 500 link: accepted rate must approach 500. *)
  check_float_eps 60. "accepted near capacity" 500. accepted

let test_core_relabels_to_alpha () =
  let engine, link, core, _ = core_fixture () in
  (* Establish alpha via an uncongested window. *)
  inject engine link ~rate:100. ~label:20. ~until:2.;
  Sim.Engine.run_until engine 2.;
  let alpha = match Csfq.Core.alpha core with Some a -> a | None -> 0. in
  (* A packet labelled above alpha that survives must leave with
     label = alpha. *)
  let relabelled = ref [] in
  let seen = ref 0 in
  (* Tap the sink side: observe the packet after the hook ran. *)
  let pkt = Net.Packet.make ~id:9999 ~flow:1 ~created:2. () in
  pkt.Net.Packet.floats.label <- alpha *. 100.;
  (* Send repeatedly until one survives the probabilistic filter. *)
  let rec try_send n =
    if n > 200 then ()
    else begin
      let p = labelled ~id:n ~created:2. (alpha *. 100.) in
      Net.Link.send link p;
      if p.Net.Packet.floats.label <= alpha +. 1e-9 then begin
        relabelled := p.Net.Packet.floats.label :: !relabelled;
        incr seen
      end
      else try_send (n + 1)
    end
  in
  try_send 1;
  Alcotest.(check bool) "a surviving packet was relabelled" true (!seen > 0);
  List.iter (fun l -> check_float_eps 1e-6 "label clamped" alpha l) !relabelled

let test_core_overflow_penalty () =
  let engine, link, core, _ = core_fixture () in
  inject engine link ~rate:100. ~label:20. ~until:2.;
  Sim.Engine.run_until engine 2.;
  let alpha0 = match Csfq.Core.alpha core with Some a -> a | None -> 0. in
  Csfq.Core.note_overflow core;
  (match Csfq.Core.alpha core with
  | Some a -> check_float "3% decay" (alpha0 *. 0.97) a
  | None -> Alcotest.fail "alpha lost");
  (* With no alpha the penalty is a no-op. *)
  let _, _, fresh, _ = core_fixture () in
  Csfq.Core.note_overflow fresh;
  Alcotest.(check bool) "still unset" true (Csfq.Core.alpha fresh = None)

let test_core_attach_rejects_hooked_link () =
  let _, link, _, _ = core_fixture () in
  Alcotest.check_raises "already hooked"
    (Invalid_argument "Csfq.Core.attach: link C1->C2 already has hooks") (fun () ->
      ignore (Csfq.Core.attach ~params:Csfq.Params.default ~rng:(Sim.Rng.create 8) link))

let test_core_detach () =
  let _, link, core, _ = core_fixture () in
  Csfq.Core.detach core;
  Alcotest.(check bool) "hook removed" false (Net.Link.has_hook link)

let test_core_unlabelled_packets_pass () =
  let engine, link, core, delivered = core_fixture () in
  (* Unlabelled (negative label) packets are never dropped early. *)
  inject engine link ~rate:100. ~label:(-1.) ~until:2.;
  Sim.Engine.run_until engine 2.5;
  Alcotest.(check int) "no early drops" 0 (Csfq.Core.early_drops core);
  Alcotest.(check bool) "delivered" true (!delivered > 150)

(* ------------------------------------------------------------------ *)
(* Edge agent *)

let edge_fixture ?(weight = 2.) ?(auto_probes = true) () =
  let engine = Sim.Engine.create () in
  Sim.Metrics.set_auto_probes (Sim.Engine.metrics engine) auto_probes;
  let topology = Net.Topology.create engine in
  let n kind name = Net.Topology.add_node topology ~kind name in
  let e = n Net.Node.Edge "E" and c1 = n Net.Node.Core "C1" in
  let d = n Net.Node.Edge "D" in
  let link ~src ~dst =
    Net.Topology.add_link topology ~src ~dst ~bandwidth:4_000_000. ~delay:0.04
      ~qdisc:(Net.Qdisc.droptail ~capacity:40)
  in
  let l1 = link ~src:e ~dst:c1 in
  let _l2 = link ~src:c1 ~dst:d in
  let flow = Net.Flow.make ~id:1 ~weight ~path:[ e; c1; d ] in
  Net.Topology.route_paths topology [ flow.Net.Flow.path ];
  let agent = Csfq.Edge.create ~params:Csfq.Params.default ~topology ~flow () in
  (engine, agent, l1)

(* Per-flow probes: name, help and value of each csfq.flow.* row. *)
let flow_probe_rows engine =
  List.filter_map
    (fun r ->
      if String.starts_with ~prefix:"csfq.flow." r.Sim.Metrics.name then
        Some (r.Sim.Metrics.name, r.Sim.Metrics.help, r.Sim.Metrics.value)
      else None)
    (Sim.Metrics.rows (Sim.Engine.metrics engine))

let test_edge_probes_follow_auto_probes () =
  let engine, _, _ = edge_fixture ~auto_probes:false () in
  Alcotest.(check int) "auto-probes off: no per-flow rows" 0
    (List.length (flow_probe_rows engine));
  let engine, agent, _ = edge_fixture () in
  Alcotest.(check (list (triple string string (float 0.))))
    "auto-probes on: the four per-flow rows"
    [
      ("csfq.flow.1.delivered", "packets that reached the sink", 0.);
      ("csfq.flow.1.losses", "loss signals, the CSFQ feedback", 0.);
      ("csfq.flow.1.rate", "current allowed rate bg, pkt/s", Csfq.Edge.rate agent);
      ("csfq.flow.1.sent", "packets injected at the ingress", 0.);
    ]
    (flow_probe_rows engine)

let test_edge_labels_with_normalized_rate () =
  let engine, agent, l1 = edge_fixture ~weight:2. () in
  let checked = ref 0 in
  l1.Net.Link.on_arrival <-
    (fun p ->
      incr checked;
      (* Label must be the flow's estimated rate / weight: after a few
         packets the estimate tracks the paced rate, so the label stays
         within a factor of the actual. *)
      if p.Net.Packet.floats.label <= 0. then Alcotest.fail "unlabelled packet";
      Net.Link.Pass);
  Csfq.Edge.start agent;
  Sim.Engine.run_until engine 10.;
  Alcotest.(check bool) "packets checked" true (!checked > 10);
  (* After 10 s the source rate is stable enough that the current label
     approximates rate/weight. *)
  check_float_eps 3. "label near rate/weight"
    (Csfq.Edge.rate agent /. 2.)
    (Csfq.Edge.current_label agent)

let test_edge_losses_throttle () =
  let engine, agent, _ = edge_fixture () in
  Csfq.Edge.start agent;
  Sim.Engine.run_until engine 7.;
  let rate0 = Csfq.Edge.rate agent in
  for _ = 1 to 4 do
    Csfq.Edge.note_loss agent
  done;
  Sim.Engine.run_until engine (Sim.Engine.now engine +. 0.55);
  check_float "beta per loss" (rate0 -. 4.) (Csfq.Edge.rate agent);
  Alcotest.(check int) "loss counter" 4 (Csfq.Edge.losses agent)

let test_edge_loss_in_slow_start_halves () =
  let engine, agent, _ = edge_fixture () in
  Csfq.Edge.start agent;
  Sim.Engine.run_until engine 2.6;
  check_float "slow-start rate" 4. (Csfq.Edge.rate agent);
  Csfq.Edge.note_loss agent;
  check_float "halved" 2. (Csfq.Edge.rate agent)

let test_edge_loss_ignored_when_stopped () =
  let engine, agent, _ = edge_fixture () in
  Csfq.Edge.start agent;
  Sim.Engine.run_until engine 1.;
  Csfq.Edge.stop agent;
  Csfq.Edge.note_loss agent;
  Alcotest.(check int) "not counted" 0 (Csfq.Edge.losses agent)

(* ------------------------------------------------------------------ *)
(* End-to-end *)

let run_bottleneck ?(duration = 180.) ?(floors = []) ~weights n =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights n in
  let schedule = List.init n (fun i -> (0., Workload.Runner.Start (i + 1))) in
  Workload.Runner.run ~scheme:(Workload.Runner.Csfq Csfq.Params.default) ~network
    ~floors ~schedule ~duration ()

let test_converges_weighted () =
  let result = run_bottleneck ~weights:(fun i -> float_of_int i) 3 in
  (* Sending rates overshoot slightly (losses supply the feedback), but
     weighted fairness of the normalized rates must hold. *)
  Alcotest.(check bool) "weighted fair" true
    (Workload.Runner.jain result ~from:150. ~until:180. > 0.99);
  let goodput i =
    Option.value ~default:0.
      (Sim.Timeseries.window_mean
         (List.assoc i result.Workload.Runner.goodput_series)
         ~from:150. ~until:180.)
  in
  check_float_eps 15. "goodput flow 1" 83.3 (goodput 1);
  check_float_eps 25. "goodput flow 2" 166.7 (goodput 2);
  check_float_eps 30. "goodput flow 3" 250. (goodput 3)

let test_csfq_drops_packets () =
  let result = run_bottleneck ~weights:(fun _ -> 1.) 4 ~duration:60. in
  Alcotest.(check bool) "csfq drops under congestion" true
    (result.Workload.Runner.core_drops > 0);
  Alcotest.(check bool) "mostly early (probabilistic) drops" true
    (result.Workload.Runner.early_drops > result.Workload.Runner.core_drops / 2)

let test_unresponsive_flow_policed () =
  (* CSFQ's headline property: a firehose that ignores congestion still
     only receives its fair share of goodput. Flow 1 is a blaster at
     450 pkt/s; flows 2 and 3 adapt. Fair share is ~166 each. *)
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 3 in
  let schedule = [ (0., Workload.Runner.Start 2); (0., Workload.Runner.Start 3) ] in
  (* Hand-made unresponsive source for flow 1: labels honestly (the
     ingress edge estimates its rate) but never slows down. *)
  let flow1 = Workload.Network.flow network 1 in
  let estimator = Csfq.Rate_estimator.create ~k:0.1 in
  let delivered1 = ref 0 in
  let topology = network.Workload.Network.topology in
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> incr delivered1);
  let first_link = Net.Flow.first_link flow1 topology in
  let seq = ref 0 in
  ignore
    (Sim.Engine.every engine ~period:(1. /. 450.) (fun () ->
         incr seq;
         let now = Sim.Engine.now engine in
         Csfq.Rate_estimator.update estimator ~now ~amount:1.;
         let rate = Csfq.Rate_estimator.value estimator in
         let pkt = Net.Packet.make ~id:!seq ~flow:1 ~created:now () in
         pkt.Net.Packet.dst <- (Net.Flow.egress flow1).Net.Node.host;
         pkt.Net.Packet.floats.label <- rate /. flow1.Net.Flow.weight;
         Net.Link.send first_link pkt));
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Csfq Csfq.Params.default) ~network
      ~schedule ~duration:120. ()
  in
  ignore result;
  (* The blaster's goodput over the whole run must stay near fair share
     once alpha settles; allow the startup transient. *)
  let goodput1 = float_of_int !delivered1 /. 120. in
  Alcotest.(check bool) "firehose policed to ~fair share" true
    (goodput1 < 260. && goodput1 > 120.)

let test_floor_respected_goodput () =
  let result = run_bottleneck ~weights:(fun _ -> 1.) 4 ~floors:[ (1, 200.) ] ~duration:120. in
  let m = Workload.Runner.mean_rate result ~flow:1 ~from:90. ~until:120. in
  Alcotest.(check bool) "contracted flow keeps its floor" true (m >= 195.)

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  Alcotest.run "csfq"
    [
      ( "rate_estimator",
        [
          Alcotest.test_case "bad k" `Quick test_estimator_rejects_bad_k;
          Alcotest.test_case "constant rate" `Quick test_estimator_converges_to_constant_rate;
          Alcotest.test_case "tracks change" `Quick test_estimator_tracks_rate_change;
          Alcotest.test_case "simultaneous arrivals" `Quick
            test_estimator_simultaneous_arrivals;
          Alcotest.test_case "read decays" `Quick test_estimator_read_decays;
        ] );
      ( "core",
        [
          Alcotest.test_case "alpha unset initially" `Quick test_core_alpha_unset_initially;
          Alcotest.test_case "uncongested max label" `Quick
            test_core_uncongested_tracks_max_label;
          Alcotest.test_case "congestion and drops" `Quick
            test_core_congestion_detected_and_drops;
          Alcotest.test_case "drop probability" `Quick test_core_drop_probability_proportional;
          Alcotest.test_case "relabels to alpha" `Quick test_core_relabels_to_alpha;
          Alcotest.test_case "overflow penalty" `Quick test_core_overflow_penalty;
          Alcotest.test_case "attach rejects hooked" `Quick
            test_core_attach_rejects_hooked_link;
          Alcotest.test_case "detach" `Quick test_core_detach;
          Alcotest.test_case "unlabelled pass" `Quick test_core_unlabelled_packets_pass;
        ] );
      ( "edge",
        [
          Alcotest.test_case "labels normalized rate" `Quick
            test_edge_labels_with_normalized_rate;
          Alcotest.test_case "probes follow auto-probes" `Quick
            test_edge_probes_follow_auto_probes;
          Alcotest.test_case "losses throttle" `Quick test_edge_losses_throttle;
          Alcotest.test_case "slow-start loss halves" `Quick
            test_edge_loss_in_slow_start_halves;
          Alcotest.test_case "loss when stopped" `Quick test_edge_loss_ignored_when_stopped;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "weighted convergence" `Slow test_converges_weighted;
          Alcotest.test_case "drops under congestion" `Slow test_csfq_drops_packets;
          Alcotest.test_case "unresponsive flow policed" `Slow
            test_unresponsive_flow_policed;
          Alcotest.test_case "floor respected" `Slow test_floor_respected_goodput;
        ] );
    ]
