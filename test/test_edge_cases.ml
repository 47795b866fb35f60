(* Edge-case and robustness tests across layers: boundary parameters,
   degenerate scenarios, restart/cancel interleavings, and invariants
   that the main suites exercise only implicitly. *)

let check_float = Alcotest.(check (float 1e-9))

let check_float_eps eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Engine interleavings *)

let test_engine_cancel_recurring_during_tick () =
  (* A recurring timer cancelling itself from inside its own action. *)
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let handle = ref None in
  let tick () =
    incr count;
    if !count = 3 then Option.iter Sim.Engine.cancel !handle
  in
  handle := Some (Sim.Engine.every e ~period:1. tick);
  Sim.Engine.run e;
  Alcotest.(check int) "stopped itself after 3" 3 !count

let test_engine_zero_delay_event () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:1. (fun () ->
         log := "outer" :: !log;
         ignore (Sim.Engine.schedule e ~delay:0. (fun () -> log := "inner" :: !log));
         log := "outer-end" :: !log));
  Sim.Engine.run e;
  (* The zero-delay event runs after the current event completes. *)
  Alcotest.(check (list string)) "order" [ "outer"; "outer-end"; "inner" ]
    (List.rev !log);
  check_float "clock unchanged by zero delay" 1. (Sim.Engine.now e)

let test_engine_run_until_exact_boundary () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule_at e ~time:5. (fun () -> incr fired));
  Sim.Engine.run_until e 5.;
  Alcotest.(check int) "inclusive boundary" 1 !fired

let test_engine_many_cancellations () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let handles =
    List.init 100 (fun i ->
        Sim.Engine.schedule e ~delay:(float_of_int i +. 1.) (fun () -> incr fired))
  in
  List.iteri (fun i h -> if i mod 2 = 0 then Sim.Engine.cancel h) handles;
  Sim.Engine.run e;
  Alcotest.(check int) "half fired" 50 !fired

(* ------------------------------------------------------------------ *)
(* Source boundary behaviour *)

let test_source_floor_above_ss_thresh_starts_linear () =
  let engine = Sim.Engine.create () in
  let params = { Net.Source.default_params with Net.Source.floor = 100. } in
  let src =
    Net.Source.create ~engine ~params ~emit:(fun ~now:_ -> ())
      ~collect:(fun () -> 0)
      ()
  in
  Net.Source.start src;
  check_float "starts at the floor" 100. (Net.Source.rate src);
  Alcotest.(check bool) "skips slow start" true (Net.Source.phase src = Net.Source.Linear)

let test_source_double_start_is_reset () =
  let engine = Sim.Engine.create () in
  let src =
    Net.Source.create ~engine ~params:Net.Source.default_params
      ~emit:(fun ~now:_ -> ())
      ~collect:(fun () -> 0)
      ()
  in
  Net.Source.start src;
  Sim.Engine.run_until engine 3.2;
  Alcotest.(check bool) "grew" true (Net.Source.rate src > 1.);
  Net.Source.start src;
  check_float "second start resets" 1. (Net.Source.rate src);
  (* No runaway duplicate timers: rate after 1 s is exactly doubled
     once, not twice. *)
  Sim.Engine.run_until engine 4.25;
  check_float "single doubling timer" 2. (Net.Source.rate src)

let test_source_stop_is_idempotent () =
  let engine = Sim.Engine.create () in
  let src =
    Net.Source.create ~engine ~params:Net.Source.default_params
      ~emit:(fun ~now:_ -> ())
      ~collect:(fun () -> 0)
      ()
  in
  Net.Source.start src;
  Net.Source.stop src;
  Net.Source.stop src;
  Alcotest.(check bool) "still stopped" false (Net.Source.running src)

let test_source_inactive_freezes_adaptation () =
  let engine = Sim.Engine.create () in
  let params =
    { Net.Source.default_params with Net.Source.initial_rate = 50.; ss_thresh = 32. }
  in
  let src =
    Net.Source.create ~engine ~params
      ~emit:(fun ~now:_ -> ())
      ~collect:(fun () -> 0)
      ()
  in
  Net.Source.start src;
  Net.Source.set_active src false;
  Sim.Engine.run_until engine 10.;
  check_float "no probing while idle" 50. (Net.Source.rate src);
  Net.Source.set_active src true;
  Sim.Engine.run_until engine 12.;
  Alcotest.(check bool) "probing resumes" true (Net.Source.rate src > 50.)

(* ------------------------------------------------------------------ *)
(* Corelite boundary behaviour *)

let test_core_epoch_without_traffic_is_quiet () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let a = Net.Topology.add_node topology ~kind:Net.Node.Core "a" in
  let b = Net.Topology.add_node topology ~kind:Net.Node.Core "b" in
  let link =
    Net.Topology.add_link topology ~src:a ~dst:b ~bandwidth:4e6 ~delay:0.01
      ~qdisc:(Net.Qdisc.droptail ~capacity:40)
  in
  let sent = ref 0 in
  let core =
    Corelite.Core.attach ~params:Corelite.Params.default ~rng:(Sim.Rng.create 1)
      ~send_feedback:(fun _ -> incr sent)
      link
  in
  Sim.Engine.run_until engine 10.;
  Alcotest.(check int) "no feedback on an idle link" 0 !sent;
  Alcotest.(check int) "no congested epochs" 0 (Corelite.Core.congested_epochs core);
  check_float "qavg zero" 0. (Corelite.Core.last_qavg core)

let test_marker_spacing_large_weight () =
  let p = { Corelite.Params.default with Corelite.Params.k1 = 1. } in
  Alcotest.(check int) "w=10" 10 (Corelite.Params.marker_spacing p ~weight:10.);
  (* Fractional weights round to the nearest spacing. *)
  Alcotest.(check int) "w=2.4 -> 2" 2 (Corelite.Params.marker_spacing p ~weight:2.4);
  Alcotest.(check int) "w=2.6 -> 3" 3 (Corelite.Params.marker_spacing p ~weight:2.6)

let test_cache_selector_single_slot () =
  let c = Corelite.Cache_selector.create ~capacity:1 ~rng:(Sim.Rng.create 2) in
  let marked flow rn =
    Net.Packet.make ~id:0 ~flow
      ~marker:{ Net.Packet.edge_id = 1; flow_id = flow; normalized_rate = rn }
      ~created:0. ()
  in
  Corelite.Cache_selector.observe c (marked 1 5.);
  Corelite.Cache_selector.observe c (marked 2 6.);
  (* Only the newest marker survives in a 1-slot cache. *)
  List.iter
    (fun m -> Alcotest.(check int) "latest only" 2 m.Net.Packet.flow_id)
    (Corelite.Cache_selector.select c ~fn:3.)

let test_stateless_selector_zero_fn_after_congestion () =
  let s =
    Corelite.Stateless_selector.create ~rav_gain:0.5 ~wav_gain:1. ~pw_cap:1.
      ~rng:(Sim.Rng.create 3)
  in
  let marked rn =
    Net.Packet.make ~id:0 ~flow:1
      ~marker:{ Net.Packet.edge_id = 1; flow_id = 1; normalized_rate = rn }
      ~created:0. ()
  in
  ignore (Corelite.Stateless_selector.observe s (marked 10.));
  Corelite.Stateless_selector.on_epoch s ~fn:5.;
  Alcotest.(check bool) "armed" true (Corelite.Stateless_selector.pw s > 0.);
  Corelite.Stateless_selector.on_epoch s ~fn:0.;
  check_float "disarmed" 0. (Corelite.Stateless_selector.pw s);
  Alcotest.(check int) "no feedback when disarmed" 0
    (Corelite.Stateless_selector.observe s (marked 10.))

let test_edge_zero_weight_flow_rejected () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let a = Net.Topology.add_node topology ~kind:Net.Node.Edge "a" in
  let b = Net.Topology.add_node topology ~kind:Net.Node.Edge "b" in
  ignore
    (Net.Topology.add_link topology ~src:a ~dst:b ~bandwidth:4e6 ~delay:0.01
       ~qdisc:(Net.Qdisc.droptail ~capacity:4));
  Alcotest.check_raises "flow weight" (Invalid_argument "Flow.make: weight must be positive")
    (fun () -> ignore (Net.Flow.make ~id:1 ~weight:(-1.) ~path:[ a; b ]))

let test_aggregate_submit_before_start_buffers () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1 in
  let flow = Workload.Network.flow network 1 in
  let aggregate =
    Corelite.Aggregate.create ~params:Corelite.Params.default
      ~topology:network.Workload.Network.topology ~flow ()
  in
  let got = ref 0 in
  Corelite.Aggregate.set_consumer aggregate ~micro:1 (fun _ -> incr got);
  (* Submissions before start sit in the ingress queue... *)
  for seq = 1 to 3 do
    ignore
      (Corelite.Aggregate.submit aggregate
         (Net.Packet.make ~id:seq ~flow:1 ~micro:1 ~created:0. ()))
  done;
  Alcotest.(check int) "buffered" 3 (Corelite.Aggregate.backlog aggregate);
  (* ...and drain once the shaper starts. *)
  Corelite.Aggregate.start aggregate;
  Sim.Engine.run_until engine 20.;
  Alcotest.(check int) "drained after start" 3 !got

(* ------------------------------------------------------------------ *)
(* CSFQ boundary behaviour *)

let test_csfq_estimator_zero_gap_burst () =
  let e = Csfq.Rate_estimator.create ~k:0.1 in
  (* Five simultaneous arrivals: rate = 5/K by the T -> 0 limit. *)
  for _ = 1 to 5 do
    ignore (Csfq.Rate_estimator.update e ~now:1. ~amount:1.)
  done;
  check_float_eps 1e-9 "burst limit" 50. (Csfq.Rate_estimator.value e)

let test_csfq_label_preserved_when_below_alpha () =
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let a = Net.Topology.add_node topology ~kind:Net.Node.Core "a" in
  let b = Net.Topology.add_node topology ~kind:Net.Node.Core "b" in
  let link =
    Net.Topology.add_link topology ~src:a ~dst:b ~bandwidth:4e6 ~delay:0.001
      ~qdisc:(Net.Qdisc.droptail ~capacity:40)
  in
  Net.Topology.route_paths topology [ [ a; b ] ];
  Net.Topology.set_flow_sink topology ~flow:1 (fun _ -> ());
  let _core = Csfq.Core.attach ~params:Csfq.Params.default ~rng:(Sim.Rng.create 7) link in
  (* Establish alpha = 30 via an uncongested window of labelled traffic. *)
  let h =
    Sim.Engine.every engine ~period:0.01 (fun () ->
        let pkt =
          Net.Packet.make ~id:1 ~flow:1 ~created:(Sim.Engine.now engine) ()
        in
        pkt.Net.Packet.dst <- b.Net.Node.host;
        pkt.Net.Packet.floats.label <- 30.;
        Net.Link.send link pkt)
  in
  Sim.Engine.run_until engine 2.;
  Sim.Engine.cancel h;
  (* A below-alpha label passes unmodified. *)
  let pkt = Net.Packet.make ~id:2 ~flow:1 ~created:2. () in
  pkt.Net.Packet.floats.label <- 5.;
  Net.Link.send link pkt;
  check_float "label kept" 5. pkt.Net.Packet.floats.label

let test_plain_deployment_has_no_relabelling () =
  (* Without core logic the packets keep their edge labels end to end. *)
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1 in
  let labels = ref [] in
  let link = List.hd network.Workload.Network.core_links in
  link.Net.Link.hooks <-
    Some
      {
        Net.Link.on_arrival =
          (fun p ->
            labels := p.Net.Packet.floats.label :: !labels;
            Net.Link.Pass);
        on_queue_change = (fun _ -> ());
      };
  let d =
    Csfq.Deployment.build ~attach_cores:false ~params:Csfq.Params.default
      ~rng:(Sim.Rng.create 9) ~topology:network.Workload.Network.topology
      ~flows:(List.map (fun f -> Csfq.Deployment.spec f) network.Workload.Network.flows)
      ~core_links:[] ()
  in
  Csfq.Deployment.start_all d;
  Sim.Engine.run_until engine 10.;
  Alcotest.(check bool) "labels flow through" true
    (List.for_all (fun l -> l > 0.) !labels && !labels <> [])

(* ------------------------------------------------------------------ *)
(* Fairness solver degenerate cases *)

let test_maxmin_single_flow_takes_link () =
  let rates =
    Fairness.Maxmin.solve
      ~capacities:[ (0, 100.) ]
      ~demands:[ Fairness.Maxmin.demand ~flow:1 ~weight:3. ~links:[ 0 ] () ]
  in
  check_float "whole link" 100. (List.assoc 1 rates)

let test_maxmin_floor_equal_to_capacity () =
  let rates =
    Fairness.Maxmin.solve
      ~capacities:[ (0, 100.) ]
      ~demands:[ Fairness.Maxmin.demand ~floor:100. ~flow:1 ~weight:1. ~links:[ 0 ] () ]
  in
  check_float "floor saturates" 100. (List.assoc 1 rates)

let test_maxmin_empty_demands () =
  Alcotest.(check (list (pair int (float 0.)))) "empty" []
    (Fairness.Maxmin.solve ~capacities:[ (0, 5.) ] ~demands:[])

let test_fluid_equal_weights_split_evenly () =
  let flows =
    List.init 4 (fun i -> { Fairness.Fluid.id = i; weight = 1.; links = [ 0 ] })
  in
  let result =
    Fairness.Fluid.simulate ~capacities:[ (0, 400.) ] ~flows ~duration:600. ()
  in
  List.iter
    (fun (_, rate) -> check_float_eps 12. "even split" 100. rate)
    result.Fairness.Fluid.final

(* ------------------------------------------------------------------ *)
(* TCP corner cases *)

let test_tcp_sender_stop_cancels_rto () =
  let engine = Sim.Engine.create () in
  let sent = ref 0 in
  let sender =
    Net.Tcp.Sender.create ~engine ~flow:1 ~micro:1
      ~transmit:(fun _ -> incr sent)
      ()
  in
  Net.Tcp.Sender.start sender;
  let after_start = !sent in
  Alcotest.(check bool) "initial window sent" true (after_start >= 2);
  Net.Tcp.Sender.stop sender;
  Sim.Engine.run_until engine 30.;
  Alcotest.(check int) "no RTO retransmissions after stop" after_start !sent

let test_tcp_ack_for_nothing_is_ignored () =
  let engine = Sim.Engine.create () in
  let sender =
    Net.Tcp.Sender.create ~engine ~flow:1 ~micro:1 ~transmit:(fun _ -> ()) ()
  in
  Net.Tcp.Sender.start sender;
  let cwnd0 = Net.Tcp.Sender.cwnd sender in
  (* A duplicate ACK below anything outstanding must not break state. *)
  Net.Tcp.Sender.ack sender 0;
  Net.Tcp.Sender.ack sender 0;
  Alcotest.(check bool) "cwnd sane" true (Net.Tcp.Sender.cwnd sender >= cwnd0 -. 1e-9);
  Alcotest.(check int) "nothing acked" 0 (Net.Tcp.Sender.acked sender)

(* ------------------------------------------------------------------ *)
(* Workload odds and ends *)

let test_chain_rejects_one_core () =
  Alcotest.check_raises "one core" (Invalid_argument "Network.chain: need at least two cores")
    (fun () ->
      ignore
        (Workload.Network.chain ~engine:(Sim.Engine.create ()) ~cores:1
           ~specs:[ (1, 1., 1, 1) ]
           ()))

let test_expected_rates_empty_active () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 2 in
  Alcotest.(check (list (pair int (float 0.)))) "no active flows" []
    (Workload.Network.expected_rates network ~active:[])

let test_runner_rejects_unknown_schedule_flow () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1 in
  (* Starting an unknown flow raises when the event fires. *)
  Alcotest.check_raises "unknown flow" Not_found (fun () ->
      ignore
        (Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
           ~network
           ~schedule:[ (1., Workload.Runner.Start 9) ]
           ~duration:5. ()))

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  Alcotest.run "edge_cases"
    [
      ( "engine",
        [
          Alcotest.test_case "recurring self-cancel" `Quick
            test_engine_cancel_recurring_during_tick;
          Alcotest.test_case "zero delay" `Quick test_engine_zero_delay_event;
          Alcotest.test_case "run_until boundary" `Quick
            test_engine_run_until_exact_boundary;
          Alcotest.test_case "many cancellations" `Quick test_engine_many_cancellations;
        ] );
      ( "source",
        [
          Alcotest.test_case "floor above ss_thresh" `Quick
            test_source_floor_above_ss_thresh_starts_linear;
          Alcotest.test_case "double start" `Quick test_source_double_start_is_reset;
          Alcotest.test_case "stop idempotent" `Quick test_source_stop_is_idempotent;
          Alcotest.test_case "inactive freezes" `Quick test_source_inactive_freezes_adaptation;
        ] );
      ( "corelite",
        [
          Alcotest.test_case "idle link quiet" `Quick test_core_epoch_without_traffic_is_quiet;
          Alcotest.test_case "marker spacing extremes" `Quick test_marker_spacing_large_weight;
          Alcotest.test_case "one-slot cache" `Quick test_cache_selector_single_slot;
          Alcotest.test_case "selector disarm" `Quick
            test_stateless_selector_zero_fn_after_congestion;
          Alcotest.test_case "invalid flow weight" `Quick test_edge_zero_weight_flow_rejected;
          Alcotest.test_case "aggregate pre-start buffering" `Quick
            test_aggregate_submit_before_start_buffers;
        ] );
      ( "csfq",
        [
          Alcotest.test_case "estimator burst limit" `Quick test_csfq_estimator_zero_gap_burst;
          Alcotest.test_case "label below alpha kept" `Quick
            test_csfq_label_preserved_when_below_alpha;
          Alcotest.test_case "plain keeps labels" `Quick
            test_plain_deployment_has_no_relabelling;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "single flow" `Quick test_maxmin_single_flow_takes_link;
          Alcotest.test_case "floor at capacity" `Quick test_maxmin_floor_equal_to_capacity;
          Alcotest.test_case "empty demands" `Quick test_maxmin_empty_demands;
          Alcotest.test_case "fluid even split" `Quick test_fluid_equal_weights_split_evenly;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "stop cancels rto" `Quick test_tcp_sender_stop_cancels_rto;
          Alcotest.test_case "stray ack ignored" `Quick test_tcp_ack_for_nothing_is_ignored;
        ] );
      ( "workload",
        [
          Alcotest.test_case "chain needs two cores" `Quick test_chain_rejects_one_core;
          Alcotest.test_case "empty active set" `Quick test_expected_rates_empty_active;
          Alcotest.test_case "unknown schedule flow" `Quick
            test_runner_rejects_unknown_schedule_flow;
        ] );
    ]
