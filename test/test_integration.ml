(* Cross-scheme integration tests: the paper's qualitative claims,
   checked end-to-end on short runs.

   These are the "shape" assertions of EXPERIMENTS.md in executable
   form: who wins, by roughly what factor, and under which dynamics. *)

let ids n = List.init n (fun i -> i + 1)

let fig5_like scheme ~duration =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.topology1 ~engine ~flow_ids:(ids 10)
      ~weights:Workload.Figures.weights_s42 ()
  in
  let schedule = List.map (fun i -> (0., Workload.Runner.Start i)) (ids 10) in
  Workload.Runner.run ~scheme ~network ~schedule ~duration ()

let corelite = Workload.Runner.Corelite Corelite.Params.default

let csfq = Workload.Runner.Csfq Csfq.Params.default

(* Claim (Section 4.2): with simultaneous startup Corelite sees no
   packet drops while CSFQ's mis-estimated fair share causes losses. *)
let test_startup_drops_contrast () =
  let r_corelite = fig5_like corelite ~duration:80. in
  let r_csfq = fig5_like csfq ~duration:80. in
  Alcotest.(check int) "corelite: no drops" 0 r_corelite.Workload.Runner.core_drops;
  Alcotest.(check bool) "csfq: hundreds of drops" true
    (r_csfq.Workload.Runner.core_drops > 100)

(* Claim (Section 4.2): Corelite converges faster than CSFQ. *)
let test_startup_convergence_contrast () =
  let conv scheme =
    let result = fig5_like scheme ~duration:80. in
    let active = ids 10 in
    let reference =
      Workload.Network.expected_rates result.Workload.Runner.network ~active
    in
    let series =
      List.map
        (fun id ->
          ( Sim.Timeseries.smooth (List.assoc id result.Workload.Runner.rate_series)
              ~window:5.,
            List.assoc id reference ))
        active
    in
    Fairness.Metrics.convergence_time ~tolerance:0.2 ~hold:5. series
  in
  match (conv corelite, conv csfq) with
  | Some tc, Some tf ->
    Alcotest.(check bool)
      (Printf.sprintf "corelite (%.0f s) before csfq (%.0f s)" tc tf)
      true (tc < tf)
  | Some _, None -> () (* CSFQ never converged: an even stronger win *)
  | None, _ -> Alcotest.fail "corelite failed to converge"

(* Claim (Section 4.1): same-weight flows get the same service
   regardless of RTT and of how many congested links they cross. *)
let test_rtt_and_hopcount_independence () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.topology1 ~engine ~weights:Workload.Figures.weights_s41 ()
  in
  let schedule = List.map (fun i -> (0., Workload.Runner.Start i)) (ids 20) in
  let result =
    Workload.Runner.run ~scheme:corelite ~network ~schedule ~duration:120. ()
  in
  (* Flow 2: one congested link, RTT 240 ms; flow 9 (w=2): three
     congested links, RTT 400 ms. Same weight -> same service. *)
  let m i = Workload.Runner.mean_rate result ~flow:i ~from:80. ~until:120. in
  let ratio = m 9 /. m 2 in
  Alcotest.(check bool)
    (Printf.sprintf "service ratio %.2f within 15%%" ratio)
    true
    (ratio > 0.85 && ratio < 1.15)

(* Claim (Section 2): weighted service differentiation - cumulative
   service is proportional to weight for flows sharing a bottleneck. *)
let test_cumulative_service_weighted () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.single_bottleneck ~engine
      ~weights:(fun i -> if i = 1 then 1. else 2.)
      2
  in
  let schedule = [ (0., Workload.Runner.Start 1); (0., Workload.Runner.Start 2) ] in
  let result =
    Workload.Runner.run ~scheme:corelite ~network ~schedule ~duration:400. ()
  in
  (* Measure service over the steady half of the run: the shared
     slow-start and the long climb to the 333 pkt/s share would
     otherwise mask the 2:1 differentiation. *)
  let served i =
    let ts = List.assoc i result.Workload.Runner.cumulative in
    let at t = Option.value ~default:0. (Sim.Timeseries.value_at ts t) in
    at 400. -. at 200.
  in
  let ratio = served 2 /. served 1 in
  Alcotest.(check bool)
    (Printf.sprintf "cumulative ratio %.2f in [1.6, 2.2]" ratio)
    true
    (ratio > 1.6 && ratio < 2.2)

(* Claim (Section 4.1 / Figure 3): when flows leave, the remaining ones
   climb back to their larger shares. *)
let test_rate_reclaim_after_departure () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 2 in
  let schedule =
    [
      (0., Workload.Runner.Start 1);
      (0., Workload.Runner.Start 2);
      (100., Workload.Runner.Stop 2);
    ]
  in
  let result =
    Workload.Runner.run ~scheme:corelite ~network ~schedule ~duration:250. ()
  in
  let before = Workload.Runner.mean_rate result ~flow:1 ~from:80. ~until:100. in
  let after = Workload.Runner.mean_rate result ~flow:1 ~from:220. ~until:250. in
  Alcotest.(check bool)
    (Printf.sprintf "before %.0f ~ 250, after %.0f ~ 500" before after)
    true
    (before < 300. && after > 420.)

(* Claim (Section 4.3): restarted flows ramp back; the system stays
   weighted-fair after churn under Corelite. *)
let test_churn_recovers_fairness () =
  let spec = Workload.Figures.fig9 () in
  let result = Workload.Figures.run spec in
  let jain =
    Workload.Runner.jain ~flows:(ids 20) result ~from:120. ~until:155.
  in
  Alcotest.(check bool)
    (Printf.sprintf "jain after churn %.4f > 0.99" jain)
    true (jain > 0.99)

(* Randomized end-to-end fairness: on generated AS-like topologies
   with shortest-path forwarding, Corelite's allocation should track
   the exact weighted max-min reference. A few generated instances,
   each checked coarsely (the LIMD ramp only gets 300 s). *)
let test_random_topologies_approach_maxmin () =
  List.iter
    (fun seed ->
      let engine = Sim.Engine.create () in
      let label = "integration/random-topology" in
      let graph = Topo.Asgraph.build ~seed ~label ~nodes:8 ~m:1 () in
      let flows = Topo.Flows.generate ~seed ~label ~graph ~n:6 ~max_weight:3 () in
      let network =
        Workload.Network.of_topo ~engine ~graph ~fib:(Topo.Fib.compute graph) ~flows ()
      in
      let active = List.map (fun f -> f.Net.Flow.id) network.Workload.Network.flows in
      let schedule = List.map (fun id -> (0., Workload.Runner.Start id)) active in
      let result =
        Workload.Runner.run ~scheme:corelite ~network ~seed ~schedule ~duration:300. ()
      in
      let reference = Workload.Network.expected_rates network ~active in
      List.iter
        (fun id ->
          let measured = Workload.Runner.mean_rate result ~flow:id ~from:250. ~until:300. in
          let expected = List.assoc id reference in
          if Float.abs (measured -. expected) > 0.3 *. expected +. 10. then
            Alcotest.fail
              (Printf.sprintf "seed %d flow %d: measured %.1f vs maxmin %.1f" seed id
                 measured expected))
        active)
    [ 11; 29; 47 ]

(* Paper Section 3.1: a core router "may have multiple packet queues";
   congestion detection runs on the aggregate backlog. Corelite over a
   two-class weighted-round-robin core link must still converge to
   weighted fairness. *)
let test_multiqueue_core_still_fair () =
  let engine = Sim.Engine.create () in
  let core_qdisc () =
    Net.Qdisc.classful ~classes:2
      ~classify:(fun pkt -> pkt.Net.Packet.flow mod 2)
      ~scheduler:(Net.Qdisc.Weighted_round_robin [| 1; 1 |])
      ~capacity:20 ()
  in
  let network =
    Workload.Network.single_bottleneck ~engine ~core_qdisc ~weights:(fun _ -> 1.) 4
  in
  let schedule = List.init 4 (fun i -> (0., Workload.Runner.Start (i + 1))) in
  let result =
    Workload.Runner.run ~scheme:corelite ~network ~schedule ~duration:120. ()
  in
  let jain = Workload.Runner.jain result ~from:90. ~until:120. in
  Alcotest.(check bool)
    (Printf.sprintf "fair over multi-queue core (jain %.4f)" jain)
    true (jain > 0.99);
  let total =
    List.fold_left
      (fun acc (_, r) -> acc +. r)
      0.
      (Workload.Runner.mean_rates result ~from:90. ~until:120.)
  in
  Alcotest.(check bool)
    (Printf.sprintf "utilized (%.0f of 500)" total)
    true (total > 440.)

(* Packet conservation: everything a flow sent is delivered, dropped
   on a core link, or still in flight (bounded by the pipe). Access
   links never drop in these scenarios (each carries one shaped flow),
   so the ledger closes. *)
let test_packet_conservation () =
  List.iter
    (fun scheme ->
      let engine = Sim.Engine.create () in
      let network =
        Workload.Network.topology1 ~engine ~flow_ids:(ids 10)
          ~weights:Workload.Figures.weights_s42 ()
      in
      let schedule = List.map (fun i -> (0., Workload.Runner.Start i)) (ids 10) in
      let result = Workload.Runner.run ~scheme ~network ~schedule ~duration:60. () in
      List.iter
        (fun id ->
          let sent_minus_seen =
            (* cumulative delivered at the end + per-flow core drops *)
            let delivered =
              match Sim.Timeseries.last (List.assoc id result.Workload.Runner.cumulative) with
              | Some (_, v) -> int_of_float v
              | None -> 0
            in
            let dropped = List.assoc id result.Workload.Runner.drops_by_flow in
            (delivered, dropped)
          in
          let delivered, dropped = sent_minus_seen in
          (* We cannot read "sent" through the runner API per scheme
             uniformly, but conservation implies delivered+dropped is
             within one pipe (~100 packets) of any later measurement;
             assert non-negative components and a sane ratio instead. *)
          Alcotest.(check bool)
            (Printf.sprintf "flow %d ledger sane (%d delivered, %d dropped)" id
               delivered dropped)
            true
            (delivered > 0 && dropped >= 0 && dropped < delivered))
        (ids 10))
    [
      Workload.Runner.Corelite Corelite.Params.default;
      Workload.Runner.Csfq Csfq.Params.default;
    ]

(* CSFQ-paper-style loss accounting: under CSFQ, higher-weight flows
   send more, so they also absorb more of the early drops; Corelite's
   table is all zeros. *)
let test_per_flow_loss_accounting () =
  let run scheme =
    let engine = Sim.Engine.create () in
    let network =
      Workload.Network.topology1 ~engine ~flow_ids:(ids 10)
        ~weights:Workload.Figures.weights_s42 ()
    in
    let schedule = List.map (fun i -> (0., Workload.Runner.Start i)) (ids 10) in
    Workload.Runner.run ~scheme ~network ~schedule ~duration:80. ()
  in
  let corelite = run (Workload.Runner.Corelite Corelite.Params.default) in
  List.iter
    (fun (id, drops) ->
      Alcotest.(check int) (Printf.sprintf "corelite flow %d lossless" id) 0 drops)
    corelite.Workload.Runner.drops_by_flow;
  let csfq = run (Workload.Runner.Csfq Csfq.Params.default) in
  let total =
    List.fold_left (fun acc (_, d) -> acc + d) 0 csfq.Workload.Runner.drops_by_flow
  in
  Alcotest.(check bool) "csfq losses add up to the core total" true
    (total = csfq.Workload.Runner.core_drops)

(* The control plane matters: feedback volume should be modest -
   a few markers per congested epoch, not per packet. *)
let test_feedback_overhead_bounded () =
  let result = fig5_like corelite ~duration:80. in
  let sent =
    List.fold_left
      (fun acc (_, ts) ->
        match Sim.Timeseries.last ts with Some (_, v) -> acc +. v | None -> acc)
      0. result.Workload.Runner.cumulative
  in
  let overhead = float_of_int result.Workload.Runner.feedback_markers /. sent in
  Alcotest.(check bool)
    (Printf.sprintf "feedback/data = %.4f < 0.05" overhead)
    true (overhead < 0.05)

(* Randomized weights on a single bottleneck: the packet-level system
   must reach the weighted allocation whatever the weight vector. *)
let prop_random_weights_converge =
  QCheck.Test.make ~name:"corelite converges weighted-fair for random weight vectors"
    ~count:5
    QCheck.(list_of_size Gen.(2 -- 5) (1 -- 5))
    (fun raw_weights ->
      QCheck.assume (raw_weights <> []);
      let n = List.length raw_weights in
      let weight i = float_of_int (List.nth raw_weights (i - 1)) in
      let engine = Sim.Engine.create () in
      let network = Workload.Network.single_bottleneck ~engine ~weights:weight n in
      let schedule = List.init n (fun i -> (0., Workload.Runner.Start (i + 1))) in
      let result =
        Workload.Runner.run ~scheme:corelite ~network ~schedule ~duration:400. ()
      in
      Workload.Runner.jain result ~from:350. ~until:400. > 0.98)

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  Alcotest.run "integration"
    [
      ( "corelite_vs_csfq",
        [
          Alcotest.test_case "startup drops contrast" `Slow test_startup_drops_contrast;
          Alcotest.test_case "startup convergence contrast" `Slow
            test_startup_convergence_contrast;
        ] );
      ( "service_model",
        [
          Alcotest.test_case "rtt and hop-count independence" `Slow
            test_rtt_and_hopcount_independence;
          Alcotest.test_case "cumulative service weighted" `Slow
            test_cumulative_service_weighted;
          Alcotest.test_case "rate reclaim after departure" `Slow
            test_rate_reclaim_after_departure;
          Alcotest.test_case "churn recovers fairness" `Slow test_churn_recovers_fairness;
          Alcotest.test_case "random topologies approach maxmin" `Slow
            test_random_topologies_approach_maxmin;
          Alcotest.test_case "multi-queue core still fair" `Slow
            test_multiqueue_core_still_fair;
          Alcotest.test_case "packet conservation" `Slow test_packet_conservation;
          Alcotest.test_case "per-flow loss accounting" `Slow
            test_per_flow_loss_accounting;
          Alcotest.test_case "feedback overhead bounded" `Slow
            test_feedback_overhead_bounded;
          QCheck_alcotest.to_alcotest prop_random_weights_converge;
        ] );
    ]
