(* Tests for the evaluation workload layer: Topology 1 construction,
   the experiment runner, figure specs, sweeps, and CSV export. *)

let check_float = Alcotest.(check (float 1e-9))

let ids n = List.init n (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* Network builders *)

let test_topology1_structure () =
  let engine = Sim.Engine.create () in
  let net = Workload.Network.topology1 ~engine ~weights:(fun _ -> 1.) () in
  Alcotest.(check int) "20 flows" 20 (List.length net.Workload.Network.flows);
  Alcotest.(check int) "3 congested links" 3
    (List.length net.Workload.Network.core_links);
  (* 4 cores + 20 ingress + 20 egress edges. *)
  Alcotest.(check int) "44 nodes" 44
    (List.length (Net.Topology.nodes net.Workload.Network.topology));
  (* 3 core links + 40 access links. *)
  Alcotest.(check int) "43 links" 43
    (List.length (Net.Topology.links net.Workload.Network.topology))

let test_topology1_rtts () =
  (* One-way propagation: 3 hops = 120 ms (RTT 240), 4 hops = 160 ms
     (RTT 320), 5 hops = 200 ms (RTT 400) — the paper's RTT classes. *)
  let engine = Sim.Engine.create () in
  let net = Workload.Network.topology1 ~engine ~weights:(fun _ -> 1.) () in
  let one_way id =
    let flow = Workload.Network.flow net id in
    Net.Topology.path_delay net.Workload.Network.topology flow.Net.Flow.path
  in
  check_float "flow 1 (single link)" 0.12 (one_way 1);
  check_float "flow 11 (single link)" 0.12 (one_way 11);
  check_float "flow 16 (single link)" 0.12 (one_way 16);
  check_float "flow 6 (two links)" 0.16 (one_way 6);
  check_float "flow 13 (two links)" 0.16 (one_way 13);
  check_float "flow 9 (three links)" 0.2 (one_way 9)

let test_topology1_weights_applied () =
  let engine = Sim.Engine.create () in
  let net =
    Workload.Network.topology1 ~engine ~weights:Workload.Figures.weights_s41 ()
  in
  let w id = (Workload.Network.flow net id).Net.Flow.weight in
  check_float "flow 5" 3. (w 5);
  check_float "flow 15" 3. (w 15);
  check_float "flow 1" 1. (w 1);
  check_float "flow 2" 2. (w 2)

let test_topology1_subset () =
  let engine = Sim.Engine.create () in
  let net =
    Workload.Network.topology1 ~engine ~flow_ids:(ids 10)
      ~weights:Workload.Figures.weights_s42 ()
  in
  Alcotest.(check int) "10 flows" 10 (List.length net.Workload.Network.flows);
  Alcotest.check_raises "flow 11 absent" Not_found (fun () ->
      ignore (Workload.Network.flow net 11))

let test_expected_rates_phases () =
  let engine = Sim.Engine.create () in
  let net =
    Workload.Network.topology1 ~engine ~weights:Workload.Figures.weights_s41 ()
  in
  let all = ids 20 in
  let absent = [ 1; 9; 10; 11; 16 ] in
  let fifteen = List.filter (fun i -> not (List.mem i absent)) all in
  let at20 = Workload.Network.expected_rates net ~active:all in
  List.iter
    (fun i ->
      check_float
        (Printf.sprintf "flow %d @20" i)
        (25. *. Workload.Figures.weights_s41 i)
        (List.assoc i at20))
    all;
  let at15 = Workload.Network.expected_rates net ~active:fifteen in
  check_float "per-unit 33.33 @15" (500. /. 15. *. 2.) (List.assoc 2 at15)

let test_single_bottleneck_structure () =
  let engine = Sim.Engine.create () in
  let net = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 5 in
  Alcotest.(check int) "5 flows" 5 (List.length net.Workload.Network.flows);
  Alcotest.(check int) "one congested link" 1
    (List.length net.Workload.Network.core_links);
  Alcotest.check_raises "needs flows"
    (Invalid_argument "Network.single_bottleneck: need at least one flow") (fun () ->
      ignore (Workload.Network.single_bottleneck ~engine:(Sim.Engine.create ()) ~weights:(fun _ -> 1.) 0))

(* Hand-built forwarding tables stay linear in the total path length:
   ingress edges hold no entries (agents send on the first link) and
   egress hosts deliver, so only the two cores carry one entry per
   host. A table over every host on every node would hold 2,002,000. *)
let test_single_bottleneck_fib_linear () =
  let engine = Sim.Engine.create () in
  let net = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1000 in
  let entries =
    List.fold_left
      (fun acc node -> acc + Net.Node.fib_span node)
      0
      (Net.Topology.nodes net.Workload.Network.topology)
  in
  let path_total =
    List.fold_left
      (fun acc flow -> acc + List.length flow.Net.Flow.path)
      0 net.Workload.Network.flows
  in
  Alcotest.(check int) "total path length" 4000 path_total;
  Alcotest.(check bool)
    (Printf.sprintf "%d entries within %d" entries path_total)
    true (entries <= path_total)

(* The compact FIB against the graph's: at every switch or router the
   table names the link [Topo.Fib.next_hop] names, or none where it
   names none, and a fat-tree host holds no row (Net node and link ids
   equal the graph's). *)
let check_compact_fib graph =
  let engine = Sim.Engine.create () in
  let fib = Topo.Fib.compute graph in
  let flows = Topo.Flows.generate ~seed:1 ~label:"compact-fib" ~graph ~n:1 () in
  let net = Workload.Network.of_topo ~engine ~graph ~fib ~flows () in
  List.iter
    (fun node ->
      let v = node.Net.Node.id in
      let host_node = Topo.Graph.kind graph v = Topo.Graph.Host in
      if host_node && Net.Node.fib_span node <> 0 then
        Alcotest.failf "host node %s holds a row" node.Net.Node.name;
      for h = 0 to Topo.Graph.n_hosts graph - 1 do
        let got =
          match Net.Node.route node ~host:h with Some l -> l.Net.Link.id | None -> -1
        in
        let want = if host_node then -1 else Topo.Fib.next_hop fib ~node:v ~host:h in
        if got <> want then
          Alcotest.failf "node %s, host %d: table names link %d, Topo.Fib link %d"
            node.Net.Node.name h got want
      done)
    (Net.Topology.nodes net.Workload.Network.topology)

let test_compact_fib_fattree () =
  check_compact_fib (Topo.Fattree.build 4);
  check_compact_fib (Topo.Fattree.build 8)

let prop_compact_fib_asgraph =
  QCheck.Test.make ~name:"compact FIB on AS graphs, n <= 64" ~count:20
    QCheck.(triple (4 -- 64) (1 -- 3) small_nat)
    (fun (nodes, m, seed) ->
      QCheck.assume (nodes >= m + 2);
      check_compact_fib (Topo.Asgraph.build ~seed ~label:"compact-fib" ~nodes ~m ());
      true)

let test_link_capacities () =
  let engine = Sim.Engine.create () in
  let net = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 2 in
  List.iter
    (fun (_, c) -> check_float "500 pkt/s each" 500. c)
    (Workload.Network.link_capacities net)

(* ------------------------------------------------------------------ *)
(* Runner *)

let small_run ?(scheme = Workload.Runner.Corelite Corelite.Params.default) ?(seed = 42)
    ?(duration = 30.) () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 3 in
  let schedule = List.init 3 (fun i -> (0., Workload.Runner.Start (i + 1))) in
  Workload.Runner.run ~scheme ~network ~seed ~schedule ~duration ()

let test_runner_rejects_bad_duration () =
  List.iter
    (fun duration ->
      Alcotest.check_raises
        (Printf.sprintf "duration %g" duration)
        (Invalid_argument "Runner.run: duration must be positive and finite")
        (fun () -> ignore (small_run ~duration ())))
    [ nan; infinity; 0.; -1. ]

let test_runner_sampling_grid () =
  let result = small_run () in
  List.iter
    (fun (_, ts) -> Alcotest.(check int) "30 samples" 30 (Sim.Timeseries.length ts))
    result.Workload.Runner.rate_series;
  let times = Array.map fst (Sim.Timeseries.to_array (snd (List.hd result.Workload.Runner.rate_series))) in
  check_float "first sample at 1 s" 1. times.(0);
  check_float "last sample at 30 s" 30. times.(29)

let test_runner_cumulative_monotone () =
  let result = small_run () in
  List.iter
    (fun (_, ts) ->
      let last = ref neg_infinity in
      Sim.Timeseries.iter ts (fun _ v ->
          if v < !last then Alcotest.fail "cumulative series decreased";
          last := v))
    result.Workload.Runner.cumulative

let test_runner_deterministic () =
  let a = small_run ~seed:7 () in
  let b = small_run ~seed:7 () in
  List.iter2
    (fun (ida, tsa) (idb, tsb) ->
      Alcotest.(check int) "same flow" ida idb;
      Alcotest.(check bool) "identical series" true
        (Sim.Timeseries.to_array tsa = Sim.Timeseries.to_array tsb))
    a.Workload.Runner.rate_series b.Workload.Runner.rate_series

let test_runner_seed_changes_run () =
  (* Randomness only manifests once the bottleneck congests (selector
     draws, epoch offsets), so use enough flows to congest quickly. *)
  let congested_run seed =
    let engine = Sim.Engine.create () in
    let network =
      Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 8
    in
    let schedule = List.init 8 (fun i -> (0., Workload.Runner.Start (i + 1))) in
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network ~seed ~schedule ~duration:40. ()
  in
  let flat r =
    List.concat_map
      (fun (_, ts) -> Array.to_list (Sim.Timeseries.to_array ts))
      r.Workload.Runner.rate_series
  in
  Alcotest.(check bool) "different seeds differ" true
    (flat (congested_run 1) <> flat (congested_run 2))

let test_runner_stop_action () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 2 in
  let schedule =
    [
      (0., Workload.Runner.Start 1);
      (0., Workload.Runner.Start 2);
      (10., Workload.Runner.Stop 2);
    ]
  in
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network ~schedule ~duration:20. ()
  in
  let rate2 = Workload.Runner.mean_rate result ~flow:2 ~from:15. ~until:20. in
  check_float "stopped flow samples zero" 0. rate2;
  Alcotest.(check bool) "flow 1 alive" true
    (Workload.Runner.mean_rate result ~flow:1 ~from:15. ~until:20. > 0.)

let test_runner_mean_rate_unknown_flow () =
  let result = small_run () in
  Alcotest.(check bool) "nan for unknown" true
    (Float.is_nan (Workload.Runner.mean_rate result ~flow:99 ~from:0. ~until:30.))

let test_scheme_names () =
  Alcotest.(check string) "corelite" "corelite"
    (Workload.Runner.scheme_name (Workload.Runner.Corelite Corelite.Params.default));
  Alcotest.(check string) "csfq" "csfq"
    (Workload.Runner.scheme_name (Workload.Runner.Csfq Csfq.Params.default))

(* ------------------------------------------------------------------ *)
(* Figures *)

let test_figures_all_present () =
  let specs = Workload.Figures.all () in
  Alcotest.(check (list string)) "ids"
    [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10" ]
    (List.map (fun s -> s.Workload.Figures.id) specs)

let test_figures_schemes () =
  let scheme_of id =
    let spec = List.find (fun s -> s.Workload.Figures.id = id) (Workload.Figures.all ()) in
    Workload.Runner.scheme_name spec.Workload.Figures.scheme
  in
  List.iter
    (fun id -> Alcotest.(check string) id "corelite" (scheme_of id))
    [ "fig3"; "fig4"; "fig5"; "fig7"; "fig9" ];
  List.iter
    (fun id -> Alcotest.(check string) id "csfq" (scheme_of id))
    [ "fig6"; "fig8"; "fig10" ]

let test_figures_schedules_within_duration () =
  List.iter
    (fun spec ->
      List.iter
        (fun (t, _) ->
          if t < 0. || t > spec.Workload.Figures.duration then
            Alcotest.fail
              (Printf.sprintf "%s: event at %.1f outside run" spec.Workload.Figures.id t))
        spec.Workload.Figures.schedule;
      List.iter
        (fun p ->
          if
            p.Workload.Figures.from_t >= p.Workload.Figures.until_t
            || p.Workload.Figures.until_t > spec.Workload.Figures.duration
          then Alcotest.fail (spec.Workload.Figures.id ^ ": bad phase window"))
        spec.Workload.Figures.phases)
    (Workload.Figures.all ())

let test_figures_weights_match_paper () =
  (* Section 4.1: flows 5, 15 -> 3; 1, 11, 16 -> 1; rest 2. *)
  check_float "s41 flow 5" 3. (Workload.Figures.weights_s41 5);
  check_float "s41 flow 10" 2. (Workload.Figures.weights_s41 10);
  check_float "s41 flow 16" 1. (Workload.Figures.weights_s41 16);
  (* Section 4.3 adds flow 10 -> 3. *)
  check_float "s43 flow 10" 3. (Workload.Figures.weights_s43 10);
  (* Section 4.2: ceil(i/2). *)
  check_float "s42 flow 1" 1. (Workload.Figures.weights_s42 1);
  check_float "s42 flow 2" 1. (Workload.Figures.weights_s42 2);
  check_float "s42 flow 9" 5. (Workload.Figures.weights_s42 9);
  check_float "s42 flow 10" 5. (Workload.Figures.weights_s42 10)

let test_fig9_schedule_churn () =
  let spec = Workload.Figures.fig9 () in
  (* Flow i: start at i, stop at i+60, restart at i+65. *)
  let events_of i =
    List.filter_map
      (fun (t, a) ->
        match a with
        | Workload.Runner.Start f when f = i -> Some ("start", t)
        | Workload.Runner.Stop f when f = i -> Some ("stop", t)
        | _ -> None)
      spec.Workload.Figures.schedule
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "flow 7 lifecycle"
    [ ("start", 7.); ("stop", 67.); ("start", 72.) ]
    (events_of 7)

let test_summarize_short_run () =
  (* A miniature spec keeps the test fast while exercising the whole
     summarize pipeline. *)
  let spec = Workload.Figures.fig5 () in
  let spec = { spec with Workload.Figures.duration = 30. } in
  let spec =
    {
      spec with
      Workload.Figures.phases =
        [
          {
            Workload.Figures.label = "early";
            from_t = 20.;
            until_t = 30.;
            active = ids 10;
          };
        ];
    }
  in
  let result = Workload.Figures.run spec in
  let summary = Workload.Figures.summarize spec result in
  Alcotest.(check int) "one phase" 1
    (List.length summary.Workload.Figures.phase_summaries);
  let ps = List.hd summary.Workload.Figures.phase_summaries in
  Alcotest.(check int) "10 rows" 10 (List.length ps.Workload.Figures.rows);
  Alcotest.(check bool) "jain in (0,1]" true
    (ps.Workload.Figures.jain > 0. && ps.Workload.Figures.jain <= 1.);
  (* pp_summary renders without raising. *)
  Workload.Figures.pp_summary (Format.make_formatter (fun _ _ _ -> ()) ignore) summary

(* ------------------------------------------------------------------ *)
(* Sweeps *)

let test_sweep_point_runs () =
  let p = Workload.Sweeps.run_point ~label:"base" Corelite.Params.default in
  Alcotest.(check string) "label" "base" p.Workload.Sweeps.label;
  Alcotest.(check bool) "fair" true (p.Workload.Sweeps.jain > 0.98);
  Alcotest.(check bool) "error bounded" true (p.Workload.Sweeps.mean_error < 0.2)

let test_sweep_latency_override () =
  let p =
    Workload.Sweeps.run_point ~delay:0.002 ~label:"lowlat" Corelite.Params.default
  in
  Alcotest.(check bool) "still fair at 2 ms" true (p.Workload.Sweeps.jain > 0.98)

(* ------------------------------------------------------------------ *)
(* Blaster: an adversary at duty 1, whose burst gate never closes *)

let blaster ~network ~rate =
  Workload.Adversary.attach ~network ~flow:1 ~peak:rate ~duty:1. ~period:1. ()

let test_blaster_paces_and_counts () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1 in
  let b = blaster ~network ~rate:100. in
  Sim.Engine.run_until engine 10.;
  Alcotest.(check bool) "sent ~1000" true (abs (Workload.Adversary.sent b - 1000) <= 2);
  Workload.Adversary.stop b;
  let frozen = Workload.Adversary.sent b in
  (* Drain the ~12 packets still in flight (120 ms path at 100 pkt/s),
     then everything must have arrived. *)
  Sim.Engine.run_until engine 11.;
  check_float "all survive" 1. (Workload.Adversary.survival b);
  Sim.Engine.run_until engine 20.;
  Alcotest.(check int) "stopped" frozen (Workload.Adversary.sent b)

let test_blaster_overdrive_is_clipped () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1 in
  let b = blaster ~network ~rate:800. in
  Sim.Engine.run_until engine 20.;
  (* 800 offered on a 500 link: survival ~ 5/8. *)
  Alcotest.(check bool) "clipped to capacity" true
    (Float.abs (Workload.Adversary.survival b -. 0.625) < 0.05)

(* ------------------------------------------------------------------ *)
(* Scenario files *)

let demo_scenario =
  {|
# demo
topology chain cores=3 bandwidth=4000000 delay=0.01 queue=40
scheme corelite
seed 5
duration 60

flow 1 weight 1 from 1 to 3
flow 2 weight 2 from 1 to 3 floor 10

start 1 at 0
start 2 at 5
stop 1 at 50
|}

let test_scenario_parse_ok () =
  match Workload.Scenario_file.parse demo_scenario with
  | Error message -> Alcotest.fail message
  | Ok s ->
    Alcotest.(check int) "cores" 3 s.Workload.Scenario_file.cores;
    check_float "duration" 60. s.Workload.Scenario_file.duration;
    Alcotest.(check int) "seed" 5 s.Workload.Scenario_file.seed;
    Alcotest.(check int) "two flows" 2 (List.length s.Workload.Scenario_file.flows);
    Alcotest.(check int) "three events" 3 (List.length s.Workload.Scenario_file.schedule);
    check_float "floor" 10. (List.assoc 2 s.Workload.Scenario_file.floors);
    Alcotest.(check string) "scheme" "corelite"
      (Workload.Runner.scheme_name s.Workload.Scenario_file.scheme)

let test_scenario_runs () =
  match Workload.Scenario_file.parse demo_scenario with
  | Error message -> Alcotest.fail message
  | Ok s ->
    let result = Workload.Scenario_file.run s in
    (* Flow 1 stopped at 50; flow 2 alive. *)
    check_float "flow 1 stopped" 0.
      (Workload.Runner.mean_rate result ~flow:1 ~from:55. ~until:60.);
    Alcotest.(check bool) "flow 2 running" true
      (Workload.Runner.mean_rate result ~flow:2 ~from:55. ~until:60. > 0.)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let expect_parse_error fragment text =
  match Workload.Scenario_file.parse text with
  | Ok _ -> Alcotest.fail ("parsed but expected error mentioning " ^ fragment)
  | Error message ->
    if not (contains ~needle:fragment message) then
      Alcotest.fail (Printf.sprintf "error %S does not mention %S" message fragment)

let test_scenario_parse_errors () =
  expect_parse_error "missing 'topology'"
    {|duration 10
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "unknown directive"
    {|topology chain cores=2
frobnicate
duration 1
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "duplicate flow"
    {|topology chain cores=2
duration 1
flow 1 weight 1 from 1 to 2
flow 1 weight 2 from 1 to 2
start 1 at 0|};
  expect_parse_error "outside"
    {|topology chain cores=2
duration 1
flow 1 weight 1 from 1 to 5
start 1 at 0|};
  expect_parse_error "undefined flow"
    {|topology chain cores=2
duration 1
flow 1 weight 1 from 1 to 2
start 9 at 0|};
  expect_parse_error "missing 'duration'"
    {|topology chain cores=2
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "no start"
    {|topology chain cores=2
duration 1
flow 1 weight 1 from 1 to 2|};
  expect_parse_error "unknown scheme"
    {|topology chain cores=2
scheme bogus
duration 1
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "expected a number"
    {|topology chain cores=2
duration abc
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  (* float_of_string reads "nan" and "inf": an infinite duration used to
     run forever and a NaN one to run nothing and report jain=nan. *)
  expect_parse_error "duration: expected a number, got \"nan\""
    {|topology chain cores=2
duration nan
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "duration: expected a number, got \"inf\""
    {|topology chain cores=2
duration inf
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "weight: expected a number, got \"nan\""
    {|topology chain cores=2
duration 1
flow 1 weight nan from 1 to 2
start 1 at 0|};
  expect_parse_error "duration must be positive"
    {|topology chain cores=2
duration 0
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  (* Each of these used to parse and then crash the run with an
     uncaught Invalid_argument from the network or engine builders. *)
  expect_parse_error "line 1: cores must be at least 2, got 1"
    {|topology chain cores=1
duration 1
flow 1 weight 1 from 1 to 1
start 1 at 0|};
  expect_parse_error "line 1: bandwidth must be positive"
    {|topology chain cores=2 bandwidth=0
duration 1
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "line 1: delay must be non-negative, got -1"
    {|topology chain cores=2 delay=-1
duration 1
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "line 1: queue must be positive"
    {|topology chain cores=2 queue=0
duration 1
flow 1 weight 1 from 1 to 2
start 1 at 0|};
  expect_parse_error "line 3: floor must be non-negative, got -5"
    {|topology chain cores=2
duration 1
flow 1 weight 1 from 1 to 2 floor -5
start 1 at 0|};
  expect_parse_error "line 4: start time must be non-negative, got -1"
    {|topology chain cores=2
duration 1
flow 1 weight 1 from 1 to 2
start 1 at -1|};
  expect_parse_error "line 3: flow id must be non-negative, got -3"
    {|topology chain cores=2
duration 1
flow -3 weight 1 from 1 to 2
start -3 at 0|};
  (* Found by the fuzzing property below: a floor paced at 1e308 pkt/s
     parsed and then ran without end, and so would a large floor over
     a link fast enough to carry it. *)
  expect_parse_error "flow 2: floor 1e+308 exceeds the link capacity of 500 pkt/s"
    {|topology chain cores=4 bandwidth=4000000 delay=0.04 queue=40
duration 200
flow 1 weight 2 from 1 to 2
flow 2 weight 1 from 1 to 4 floor 1e308
start 1 at 0
start 2 at 0|};
  expect_parse_error "line 1: bandwidth must be at most 1e+12 bit/s, got 1e+308"
    {|topology chain cores=4 bandwidth=1e308 delay=0.04 queue=40
duration 200
flow 2 weight 1 from 1 to 4 floor 12345678901234567890
start 2 at 0|}

let scenario_gen =
  QCheck.Gen.(
    let* cores = 2 -- 5 in
    let* n_flows = 1 -- 6 in
    let* flows =
      List.init n_flows (fun i -> i + 1)
      |> List.map (fun id ->
             let* weight = 1 -- 4 in
             let* entry = 1 -- cores in
             let* exit = entry -- cores in
             let* floor = 0 -- 30 in
             return (id, float_of_int weight, entry, exit, float_of_int floor))
      |> flatten_l
    in
    let* duration = 10 -- 300 in
    let* seed = 0 -- 1000 in
    return (cores, flows, float_of_int duration, seed))

let prop_scenario_roundtrip =
  QCheck.Test.make ~name:"scenario file round-trips through to_string/parse" ~count:100
    (QCheck.make scenario_gen)
    (fun (cores, flows, duration, seed) ->
      let t =
        {
          Workload.Scenario_file.scheme = Workload.Runner.Corelite Corelite.Params.default;
          cores;
          bandwidth = 4e6;
          delay = 0.04;
          queue_capacity = 40;
          flows = List.map (fun (id, w, en, ex, _) -> (id, w, en, ex)) flows;
          floors = List.filter_map (fun (id, _, _, _, f) -> if f > 0. then Some (id, f) else None) flows;
          schedule =
            List.map (fun (id, _, _, _, _) -> (1., Workload.Runner.Start id)) flows;
          duration;
          seed;
        }
      in
      match Workload.Scenario_file.parse (Workload.Scenario_file.to_string t) with
      | Error message -> QCheck.Test.fail_report message
      | Ok parsed ->
        parsed.Workload.Scenario_file.cores = t.Workload.Scenario_file.cores
        && parsed.Workload.Scenario_file.flows = t.Workload.Scenario_file.flows
        && List.sort compare parsed.Workload.Scenario_file.floors
           = List.sort compare t.Workload.Scenario_file.floors
        && parsed.Workload.Scenario_file.schedule = t.Workload.Scenario_file.schedule
        (* lint: float-eq-ok -- integral durations round-trip exactly *)
        && parsed.Workload.Scenario_file.duration = t.Workload.Scenario_file.duration
        && parsed.Workload.Scenario_file.seed = t.Workload.Scenario_file.seed)

(* Parser fuzzing: inputs are the example scenarios with one to three
   line mutations each: a line dropped or duplicated, two tokens of a
   line swapped, or one number (a bare token or a [key=value]'s value)
   replaced by a value a number field must reject or survive. [parse]
   must never raise; each error names its line or is one of the
   whole-file errors; an accepted scenario, its duration capped at
   2 s, must run without an exception. The examples sit beside the
   test tree ([deps] in test/dune). *)
let example_scenarios =
  let dir = "../examples/scenarios" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort String.compare
  |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)

type line_mutation =
  | Drop_line of int
  | Duplicate_line of int
  | Swap_tokens of int * int * int
  | Replace_number of int * int * string

let fuzz_values = [ "nan"; "inf"; "-0"; "1e308"; "-1"; "0"; ""; "12345678901234567890" ]

let tokens_of line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(* A token's number: the whole token, or the value of [key=value]. *)
let number_slot token =
  let numeric v = v <> "" && Float.of_string_opt v <> None in
  match String.index_opt token '=' with
  | Some i when numeric (String.sub token (i + 1) (String.length token - i - 1)) ->
    Some (String.sub token 0 (i + 1))
  | Some _ -> None
  | None -> if numeric token then Some "" else None

let mutate_line line = function
  | Swap_tokens (_, i, j) ->
    let tokens = Array.of_list (tokens_of line) in
    let n = Array.length tokens in
    if n < 2 then line
    else begin
      let i = i mod n and j = j mod n in
      let t = tokens.(i) in
      tokens.(i) <- tokens.(j);
      tokens.(j) <- t;
      String.concat " " (Array.to_list tokens)
    end
  | Replace_number (_, k, value) ->
    let tokens = tokens_of line in
    let slots = List.filter (fun t -> number_slot t <> None) tokens in
    if slots = [] then line
    else begin
      let target = List.nth slots (k mod List.length slots) in
      let replaced = ref false in
      tokens
      |> List.map (fun t ->
             if (not !replaced) && t == target then begin
               replaced := true;
               Option.get (number_slot t) ^ value
             end
             else t)
      |> String.concat " "
    end
  | Drop_line _ | Duplicate_line _ -> line

let apply_mutation lines m =
  let n = List.length lines in
  if n = 0 then lines
  else
    let at = (match m with Drop_line i | Duplicate_line i | Swap_tokens (i, _, _)
                         | Replace_number (i, _, _) -> i) mod n in
    List.concat
      (List.mapi
         (fun i line ->
           if i <> at then [ line ]
           else
             match m with
             | Drop_line _ -> []
             | Duplicate_line _ -> [ line; line ]
             | Swap_tokens _ | Replace_number _ -> [ mutate_line line m ])
         lines)

let mutation_gen =
  QCheck.Gen.(
    let line = 0 -- 40 in
    frequency
      [
        (1, map (fun i -> Drop_line i) line);
        (1, map (fun i -> Duplicate_line i) line);
        (2, map3 (fun i a b -> Swap_tokens (i, a, b)) line (0 -- 8) (0 -- 8));
        (4, map3 (fun i k v -> Replace_number (i, k, v)) line (0 -- 8) (oneofl fuzz_values));
      ])

let mutated_scenario_gen =
  QCheck.Gen.(
    let* text = oneofl example_scenarios in
    let* mutations = list_size (1 -- 3) mutation_gen in
    return
      (String.concat "\n"
         (List.fold_left apply_mutation (String.split_on_char '\n' text) mutations)))

(* The errors [parse] reports for the file as a whole, not a line. *)
let whole_file_error message =
  List.mem message
    [ "missing 'topology' directive"; "no flows defined"; "no start directive";
      "missing 'duration'"; "duration must be positive" ]
  || String.starts_with ~prefix:"schedule references undefined flow " message
  || (String.starts_with ~prefix:"flow " message && contains ~needle:": " message)

let located_error ~lines message =
  match Scanf.sscanf_opt message "line %d: %_s" (fun n -> n) with
  | Some n -> n >= 1 && n <= lines
  | None -> whole_file_error message

let prop_scenario_fuzz =
  QCheck.Test.make ~name:"mutated example scenarios parse or fail located, and run"
    ~count:300
    (QCheck.make ~print:Fun.id mutated_scenario_gen)
    (fun text ->
      match Workload.Scenario_file.parse text with
      | exception e ->
        QCheck.Test.fail_reportf "parse raised %s" (Printexc.to_string e)
      | Error message ->
        located_error ~lines:(List.length (String.split_on_char '\n' text)) message
        || QCheck.Test.fail_reportf "unlocated error %S" message
      | Ok s -> (
        let s =
          { s with Workload.Scenario_file.duration = Float.min s.Workload.Scenario_file.duration 2. }
        in
        match Workload.Scenario_file.run s with
        | (_ : Workload.Runner.result) -> true
        | exception e -> QCheck.Test.fail_reportf "run raised %s" (Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Replication *)

let test_replicate_summary_stats () =
  let stats = Workload.Replication.replicate ~seeds:[ 1; 2; 3; 4 ] float_of_int in
  check_float "mean" 2.5 stats.Workload.Replication.mean;
  check_float "min" 1. stats.Workload.Replication.min;
  check_float "max" 4. stats.Workload.Replication.max;
  Alcotest.(check int) "runs" 4 stats.Workload.Replication.runs;
  Alcotest.(check bool) "stddev > 0" true (stats.Workload.Replication.stddev > 1.);
  Alcotest.check_raises "no seeds" (Invalid_argument "Replication.replicate: no seeds")
    (fun () -> ignore (Workload.Replication.replicate ~seeds:[] float_of_int))

let test_replicate_single_run () =
  let stats = Workload.Replication.replicate ~seeds:[ 9 ] (fun _ -> 7.5) in
  check_float "mean is the value" 7.5 stats.Workload.Replication.mean;
  check_float "no spread" 0. stats.Workload.Replication.stddev

let test_replicate_figure_stable () =
  (* A short fig5 cut: the jain spread across seeds must be small. *)
  let spec = Workload.Figures.fig5 () in
  let spec = { spec with Workload.Figures.duration = 40. } in
  let spec =
    {
      spec with
      Workload.Figures.phases =
        [
          {
            Workload.Figures.label = "tail";
            from_t = 30.;
            until_t = 40.;
            active = ids 10;
          };
        ];
    }
  in
  let stats = Workload.Replication.replicate_figure ~seeds:[ 1; 2; 3 ] spec in
  Alcotest.(check int) "three runs" 3 stats.Workload.Replication.jain.Workload.Replication.runs;
  Alcotest.(check bool) "jain high across seeds" true
    (stats.Workload.Replication.jain.Workload.Replication.min > 0.95);
  Alcotest.(check bool) "jain spread small" true
    (stats.Workload.Replication.jain.Workload.Replication.stddev < 0.02)

(* ------------------------------------------------------------------ *)
(* Csv *)

let test_csv_roundtrip_shape () =
  let result = small_run ~duration:5. () in
  let dir = Filename.temp_file "corelite" "" in
  Sys.remove dir;
  Workload.Csv.write_result ~dir ~prefix:"smoke" result;
  let path = Filename.concat dir "smoke_rates.csv" in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "header + 5 samples" 6 (List.length lines);
  Alcotest.(check string) "header" "time,flow1,flow2,flow3" (List.hd lines);
  List.iter
    (fun f -> Sys.remove (Filename.concat dir ("smoke_" ^ f ^ ".csv")))
    [ "rates"; "goodput"; "cumulative" ];
  Sys.rmdir dir

(* RFC 4180 quoting: metrics help strings carry commas, and scenario
   labels could carry anything — a naive join silently shears the
   columns. These pin the quoting rules and the parse round-trip. *)
let test_csv_field_quoting () =
  Alcotest.(check string) "plain passes through" "abc" (Workload.Csv.field "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Workload.Csv.field "a,b");
  Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\""
    (Workload.Csv.field "say \"hi\"");
  Alcotest.(check string) "newline quoted" "\"two\nlines\""
    (Workload.Csv.field "two\nlines");
  Alcotest.(check string) "row joins quoted fields" "x,\"a,b\",z"
    (Workload.Csv.row [ "x"; "a,b"; "z" ])

let test_csv_parse_roundtrip () =
  let rows =
    [
      [ "name"; "kind"; "value"; "help" ];
      [ "with,comma"; "quote\"inside"; "multi\nline"; "" ];
      [ "plain"; "1.5"; "trailing"; "last" ];
    ]
  in
  let text =
    String.concat "" (List.map (fun r -> Workload.Csv.row r ^ "\n") rows)
  in
  Alcotest.(check (list (list string))) "parse inverts row" rows
    (Workload.Csv.parse text);
  (* CRLF line ends and a missing trailing newline both parse. *)
  Alcotest.(check (list (list string))) "crlf" [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (Workload.Csv.parse "a,b\r\nc,d");
  Alcotest.check_raises "unterminated quote"
    (Invalid_argument "Csv.parse: unterminated quoted field") (fun () ->
      ignore (Workload.Csv.parse "a,\"oops"))

let prop_csv_row_roundtrips =
  QCheck.Test.make ~name:"row/parse round-trips arbitrary fields" ~count:300
    QCheck.(list_of_size Gen.(1 -- 8) (string_gen_of_size Gen.(0 -- 12) Gen.printable))
    (fun fields ->
      (* A sole empty field renders as an empty line, which CSV cannot
         distinguish from no row at all. *)
      QCheck.assume (fields <> [ "" ]);
      Workload.Csv.parse (Workload.Csv.row fields ^ "\n") = [ fields ])

let test_csv_of_metrics_roundtrip () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.set_auto_probes m true;
  let c = Sim.Metrics.counter ~help:"arrivals, including dropped ones" m "arrivals" in
  Sim.Metrics.add c 41;
  Sim.Metrics.probe ~help:"queue depth \"now\"" m "queue" (fun () -> 3.5);
  let csv = Workload.Csv.of_metrics m in
  match Workload.Csv.parse csv with
  | [ header; r1; r2 ] ->
    Alcotest.(check (list string)) "header" [ "name"; "kind"; "value"; "help" ] header;
    Alcotest.(check (list string)) "comma-bearing help survives"
      [ "arrivals"; "counter"; "41.0"; "arrivals, including dropped ones" ]
      r1;
    Alcotest.(check (list string)) "quote-bearing help survives"
      [ "queue"; "probe"; "3.5"; "queue depth \"now\"" ]
      r2
  | rows ->
    Alcotest.failf "expected header + 2 rows, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)
(* Arrivals: the churn battery's open-loop workload generator *)

let churn_profile =
  {
    Workload.Arrivals.default with
    Workload.Arrivals.rate = 1.;
    diurnal = Some { Workload.Arrivals.period = 40.; depth = 0.5 };
    flash = Some { Workload.Arrivals.at = 5.; duration = 2.; boost = 4. };
  }

let plan_fingerprint flows =
  String.concat ";"
    (List.map
       (fun (f : Workload.Arrivals.flow) ->
         Printf.sprintf "%d@%.17g:%d:%g:%s" f.Workload.Arrivals.id
           f.Workload.Arrivals.arrival f.Workload.Arrivals.size
           f.Workload.Arrivals.weight
           (match f.Workload.Arrivals.kind with
           | Workload.Arrivals.Elastic -> "e"
           | Workload.Arrivals.Onoff _ -> "o"))
       flows)

let test_arrivals_deterministic () =
  let plan ?(seed = 42) ?(label = "churn") () =
    plan_fingerprint
      (Workload.Arrivals.generate ~seed ~label ~profile:churn_profile ~horizon:60. ())
  in
  Alcotest.(check string) "same (seed, label) replays" (plan ()) (plan ());
  Alcotest.(check bool) "seed perturbs the plan" true (plan () <> plan ~seed:43 ());
  Alcotest.(check bool) "label perturbs the plan" true
    (plan () <> plan ~label:"other" ())

let test_arrivals_plan_shape () =
  let flows =
    Workload.Arrivals.generate ~seed:42 ~label:"shape" ~profile:churn_profile
      ~horizon:120. ~first_id:10 ()
  in
  Alcotest.(check bool) "a 2-minute plan at ~1/s is non-trivial" true
    (List.length flows > 30);
  List.iteri
    (fun i (f : Workload.Arrivals.flow) ->
      Alcotest.(check int) "ids consecutive from first_id" (10 + i)
        f.Workload.Arrivals.id;
      if f.Workload.Arrivals.arrival < 0. || f.Workload.Arrivals.arrival >= 120. then
        Alcotest.failf "arrival %g outside [0, horizon)" f.Workload.Arrivals.arrival;
      Alcotest.(check bool) "size clamped" true
        (f.Workload.Arrivals.size >= churn_profile.Workload.Arrivals.min_size);
      Alcotest.(check bool) "weight from the profile set" true
        (Array.exists
           (* lint: float-eq-ok -- the plan copies a profile weight *)
           (fun w -> w = f.Workload.Arrivals.weight)
           churn_profile.Workload.Arrivals.weights))
    flows;
  let sorted = List.sort Float.compare (List.map (fun f -> f.Workload.Arrivals.arrival) flows) in
  Alcotest.(check (list (float 0.))) "arrival order"
    (List.map (fun f -> f.Workload.Arrivals.arrival) flows)
    sorted

let test_arrivals_validate_boundaries () =
  let rejects what mutate =
    Alcotest.check_raises what (Invalid_argument ("Arrivals: " ^ what)) (fun () ->
        Workload.Arrivals.validate (mutate Workload.Arrivals.default))
  in
  rejects "rate must be positive and finite" (fun p ->
      { p with Workload.Arrivals.rate = 0. });
  rejects "mean_size must be at least 1" (fun p ->
      { p with Workload.Arrivals.mean_size = Float.nan });
  rejects "size_shape must exceed 1 (finite mean)" (fun p ->
      { p with Workload.Arrivals.size_shape = 1. });
  rejects "min_size must be positive" (fun p ->
      { p with Workload.Arrivals.min_size = 0 });
  rejects "weights must be nonempty" (fun p ->
      { p with Workload.Arrivals.weights = [||] });
  rejects "weights must be positive and finite" (fun p ->
      { p with Workload.Arrivals.weights = [| 1.; -2. |] });
  rejects "onoff_fraction must lie in [0, 1]" (fun p ->
      { p with Workload.Arrivals.onoff_fraction = 1.5 });
  rejects "diurnal depth must lie in [0, 1)" (fun p ->
      {
        p with
        Workload.Arrivals.diurnal = Some { Workload.Arrivals.period = 10.; depth = 1. };
      });
  rejects "flash boost must be at least 1" (fun p ->
      {
        p with
        Workload.Arrivals.flash =
          Some { Workload.Arrivals.at = 0.; duration = 1.; boost = 0.5 };
      });
  Alcotest.check_raises "horizon"
    (Invalid_argument "Arrivals: horizon must be positive and finite") (fun () ->
      ignore
        (Workload.Arrivals.generate ~seed:1 ~label:"x"
           ~profile:Workload.Arrivals.default ~horizon:0. ()))

let test_arrivals_rate_at () =
  (* Sinusoid peaks a quarter period in (sin = 1), troughs at three
     quarters; the flash multiplies inside [at, at + duration) only. *)
  check_float "diurnal peak" 1.5 (Workload.Arrivals.rate_at churn_profile 10.);
  check_float "diurnal trough" 0.5 (Workload.Arrivals.rate_at churn_profile 30.);
  check_float "flash boost at t=6 (sin small)"
    (4. *. (1. +. (0.5 *. sin (2. *. Float.pi *. 6. /. 40.))))
    (Workload.Arrivals.rate_at churn_profile 6.);
  check_float "flash over at t=7"
    (1. +. (0.5 *. sin (2. *. Float.pi *. 7. /. 40.)))
    (Workload.Arrivals.rate_at churn_profile 7.);
  check_float "thinning envelope" 6. (Workload.Arrivals.peak_rate churn_profile);
  check_float "offered load = rate * mean_size"
    (1. *. Workload.Arrivals.default.Workload.Arrivals.mean_size)
    (Workload.Arrivals.offered_load churn_profile)

(* ------------------------------------------------------------------ *)
(* Adversary: the CLEF-style heavy hitter *)

let adversary_network () =
  let engine = Sim.Engine.create () in
  (engine, Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1)

let test_adversary_attach_validation () =
  let _, network = adversary_network () in
  let rejects what msg ~peak ~duty ~period =
    Alcotest.check_raises what (Invalid_argument ("Adversary.attach: " ^ msg))
      (fun () ->
        ignore (Workload.Adversary.attach ~network ~flow:1 ~peak ~duty ~period ()))
  in
  rejects "zero peak" "peak must be positive" ~peak:0. ~duty:0.2 ~period:2.;
  rejects "nan peak" "peak must be positive" ~peak:Float.nan ~duty:0.2 ~period:2.;
  rejects "zero duty" "duty must lie in (0, 1]" ~peak:100. ~duty:0. ~period:2.;
  rejects "duty above 1" "duty must lie in (0, 1]" ~peak:100. ~duty:1.5 ~period:2.;
  rejects "negative period" "period must be positive" ~peak:100. ~duty:0.5 ~period:(-1.);
  rejects "infinite period" "period must be positive" ~peak:100. ~duty:0.5
    ~period:Float.infinity

let test_adversary_bursts_below_average () =
  let engine, network = adversary_network () in
  let adv =
    Workload.Adversary.attach ~network ~flow:1 ~peak:400. ~duty:0.25 ~period:2. ()
  in
  check_float "average = peak * duty" 100. (Workload.Adversary.average_rate adv);
  check_float "peak accessor" 400. (Workload.Adversary.peak_rate adv);
  Sim.Engine.run_until engine 20.;
  Workload.Adversary.stop adv;
  let sent_while_on = Workload.Adversary.sent adv in
  Alcotest.(check bool)
    (Printf.sprintf "sent ~avg * horizon (%d)" sent_while_on)
    true
    (sent_while_on > 1600 && sent_while_on < 2400);
  Alcotest.(check bool) "uncongested path delivers" true
    (Workload.Adversary.delivered adv > 0);
  Sim.Engine.run_until engine 25.;
  Alcotest.(check int) "silent after stop" sent_while_on
    (Workload.Adversary.sent adv)

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  Alcotest.run "workload"
    [
      ( "network",
        [
          Alcotest.test_case "topology1 structure" `Quick test_topology1_structure;
          Alcotest.test_case "topology1 rtts" `Quick test_topology1_rtts;
          Alcotest.test_case "weights applied" `Quick test_topology1_weights_applied;
          Alcotest.test_case "flow subset" `Quick test_topology1_subset;
          Alcotest.test_case "expected rates phases" `Quick test_expected_rates_phases;
          Alcotest.test_case "single bottleneck" `Quick test_single_bottleneck_structure;
          Alcotest.test_case "fib linear in path length" `Quick
            test_single_bottleneck_fib_linear;
          Alcotest.test_case "compact FIB on fat-trees k=4, k=8" `Quick
            test_compact_fib_fattree;
          QCheck_alcotest.to_alcotest prop_compact_fib_asgraph;
          Alcotest.test_case "link capacities" `Quick test_link_capacities;
        ] );
      ( "runner",
        [
          Alcotest.test_case "sampling grid" `Quick test_runner_sampling_grid;
          Alcotest.test_case "rejects bad duration" `Quick test_runner_rejects_bad_duration;
          Alcotest.test_case "cumulative monotone" `Quick test_runner_cumulative_monotone;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_runner_seed_changes_run;
          Alcotest.test_case "stop action" `Quick test_runner_stop_action;
          Alcotest.test_case "unknown flow nan" `Quick test_runner_mean_rate_unknown_flow;
          Alcotest.test_case "scheme names" `Quick test_scheme_names;
        ] );
      ( "figures",
        [
          Alcotest.test_case "all present" `Quick test_figures_all_present;
          Alcotest.test_case "schemes" `Quick test_figures_schemes;
          Alcotest.test_case "schedules within duration" `Quick
            test_figures_schedules_within_duration;
          Alcotest.test_case "weights match paper" `Quick test_figures_weights_match_paper;
          Alcotest.test_case "fig9 churn schedule" `Quick test_fig9_schedule_churn;
          Alcotest.test_case "summarize pipeline" `Slow test_summarize_short_run;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "run point" `Slow test_sweep_point_runs;
          Alcotest.test_case "latency override" `Slow test_sweep_latency_override;
        ] );
      ( "blaster",
        [
          Alcotest.test_case "paces and counts" `Quick test_blaster_paces_and_counts;
          Alcotest.test_case "overdrive clipped" `Quick test_blaster_overdrive_is_clipped;
        ] );
      ( "scenario_file",
        [
          Alcotest.test_case "parse ok" `Quick test_scenario_parse_ok;
          Alcotest.test_case "runs" `Quick test_scenario_runs;
          Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors;
          QCheck_alcotest.to_alcotest prop_scenario_roundtrip;
          QCheck_alcotest.to_alcotest prop_scenario_fuzz;
        ] );
      ( "replication",
        [
          Alcotest.test_case "summary stats" `Quick test_replicate_summary_stats;
          Alcotest.test_case "single run" `Quick test_replicate_single_run;
          Alcotest.test_case "figure stable" `Slow test_replicate_figure_stable;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "deterministic from (seed, label)" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "plan shape" `Quick test_arrivals_plan_shape;
          Alcotest.test_case "validate boundaries" `Quick
            test_arrivals_validate_boundaries;
          Alcotest.test_case "rate_at diurnal and flash" `Quick test_arrivals_rate_at;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "attach validation" `Quick test_adversary_attach_validation;
          Alcotest.test_case "bursts under a smooth average" `Quick
            test_adversary_bursts_below_average;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip shape" `Quick test_csv_roundtrip_shape;
          Alcotest.test_case "field quoting" `Quick test_csv_field_quoting;
          Alcotest.test_case "parse roundtrip" `Quick test_csv_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_csv_row_roundtrips;
          Alcotest.test_case "of_metrics roundtrip" `Quick
            test_csv_of_metrics_roundtrip;
        ] );
    ]
