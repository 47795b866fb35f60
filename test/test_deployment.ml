(* Tests for the deployment wiring (control plane, feedback latency),
   runner options (floors, bursty flows, sampling), and CSV export
   corner cases. *)

let check_float = Alcotest.(check (float 1e-9))

let ids n = List.init n (fun i -> i + 1)

let single_bottleneck ?(n = 2) ?(weights = fun _ -> 1.) () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights n in
  (engine, network)

(* ------------------------------------------------------------------ *)
(* Corelite.Deployment *)

let corelite_deployment network =
  Corelite.Deployment.build ~params:Corelite.Params.default ~rng:(Sim.Rng.create 3)
    ~topology:network.Workload.Network.topology
    ~flows:(List.map (fun f -> Corelite.Deployment.spec f) network.Workload.Network.flows)
    ~core_links:network.Workload.Network.core_links ()

let test_deployment_rejects_duplicate_flows () =
  let _, network = single_bottleneck () in
  let flow = List.hd network.Workload.Network.flows in
  Alcotest.check_raises "duplicate" (Invalid_argument "Deployment.build: duplicate flow 1")
    (fun () ->
      ignore
        (Corelite.Deployment.build ~params:Corelite.Params.default
           ~rng:(Sim.Rng.create 1) ~topology:network.Workload.Network.topology
           ~flows:[ Corelite.Deployment.spec flow; Corelite.Deployment.spec flow ]
           ~core_links:network.Workload.Network.core_links ()))

let test_deployment_agents_sorted () =
  let _, network = single_bottleneck ~n:5 () in
  let d = corelite_deployment network in
  Alcotest.(check (list int)) "ascending ids" [ 1; 2; 3; 4; 5 ]
    (List.map fst (Corelite.Deployment.agents d));
  Alcotest.check_raises "unknown agent" Not_found (fun () ->
      ignore (Corelite.Deployment.agent d 99))

let test_deployment_start_all_and_counters () =
  let engine, network = single_bottleneck ~n:3 () in
  let d = corelite_deployment network in
  Corelite.Deployment.start_all d;
  (* Three flows climbing +2 pkt/s each need ~75 s to congest 500. *)
  Sim.Engine.run_until engine 120.;
  List.iter
    (fun (_, agent) ->
      Alcotest.(check bool) "running" true (Corelite.Edge.running agent))
    (Corelite.Deployment.agents d);
  (* Three flows on one 500 pkt/s link must have triggered feedback. *)
  Alcotest.(check bool) "feedback flowed" true (Corelite.Deployment.total_feedback d > 0);
  Alcotest.(check int) "no loss" 0 (Corelite.Deployment.total_drops d);
  Alcotest.(check int) "one core attached" 1 (List.length (Corelite.Deployment.cores d))

let test_feedback_latency_matches_reverse_path () =
  (* The control-plane delay from the core link back to the ingress
     edge equals the upstream propagation: 40 ms on a single-bottleneck
     path. Check by injecting a synthetic feedback through the core's
     send_feedback closure indirectly: measure the earliest time a rate
     decrease can follow a congested epoch. Cheaper and more robust:
     verify the precomputed delay helper the deployment uses. *)
  let _, network = single_bottleneck () in
  let flow = Workload.Network.flow network 1 in
  let core_link = List.hd network.Workload.Network.core_links in
  match
    Net.Flow.upstream_delay flow network.Workload.Network.topology core_link
  with
  | Some delay -> check_float "one access hop back" 0.04 delay
  | None -> Alcotest.fail "flow does not cross its bottleneck?"

(* ------------------------------------------------------------------ *)
(* Csfq.Deployment *)

let test_csfq_deployment_no_cores_mode () =
  let engine, network = single_bottleneck ~n:4 () in
  let d =
    Csfq.Deployment.build ~attach_cores:false ~params:Csfq.Params.default
      ~rng:(Sim.Rng.create 5) ~topology:network.Workload.Network.topology
      ~flows:(List.map (fun f -> Csfq.Deployment.spec f) network.Workload.Network.flows)
      ~core_links:network.Workload.Network.core_links ()
  in
  Alcotest.(check int) "no core logic" 0 (List.length (Csfq.Deployment.cores d));
  Csfq.Deployment.start_all d;
  Sim.Engine.run_until engine 80.;
  (* Loss notifications still reach the agents (they adapt, so the link
     is not permanently saturated). *)
  let losses =
    List.fold_left (fun acc (_, a) -> acc + Csfq.Edge.losses a) 0
      (Csfq.Deployment.agents d)
  in
  Alcotest.(check bool) "agents saw losses" true (losses > 0);
  Alcotest.(check bool) "drops happened (droptail only)" true
    (Csfq.Deployment.total_drops d > 0)

let test_csfq_deployment_duplicate () =
  let _, network = single_bottleneck () in
  let flow = List.hd network.Workload.Network.flows in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Csfq.Deployment.build: duplicate flow 1") (fun () ->
      ignore
        (Csfq.Deployment.build ~params:Csfq.Params.default ~rng:(Sim.Rng.create 1)
           ~topology:network.Workload.Network.topology
           ~flows:[ Csfq.Deployment.spec flow; Csfq.Deployment.spec flow ]
           ~core_links:network.Workload.Network.core_links ()))

(* ------------------------------------------------------------------ *)
(* Dynamic flow lifecycle (churn soft state) *)

(* The lifecycle contract both deployments implement, as the body
   below uses it. *)
module type LIFECYCLE = sig
  type t

  type agent

  val build : rng:Sim.Rng.t -> Workload.Network.t -> t

  val add_flow : t -> ?floor:float -> ?size:int -> Net.Flow.t -> agent

  val end_flow : t -> int -> unit

  val stop_flow : t -> int -> unit

  val expire_idle : t -> timeout:float -> int

  val has_flow : t -> int -> bool

  val live_flows : t -> int
end

module Corelite_lifecycle = struct
  include Corelite.Deployment

  type agent = Corelite.Edge.t

  let build ~rng network =
    build ~params:Corelite.Params.default ~rng
      ~topology:network.Workload.Network.topology ~flows:[]
      ~core_links:network.Workload.Network.core_links ()
end

module Csfq_lifecycle = struct
  include Csfq.Deployment

  type agent = Csfq.Edge.t

  let build ~rng network =
    build ~params:Csfq.Params.default ~rng ~topology:network.Workload.Network.topology
      ~flows:[] ~core_links:network.Workload.Network.core_links ()
end

(* [prefix] is the deployment's name in its error messages. *)
let lifecycle_add_end_expire (module D : LIFECYCLE) ~prefix () =
  let engine, network = single_bottleneck ~n:3 () in
  let d = D.build ~rng:(Sim.Rng.create 11) network in
  let created0 = Sim.Invariant.flows_created () in
  let retired0 = Sim.Invariant.flows_retired () in
  let expired0 = Sim.Invariant.flows_expired () in
  Alcotest.(check int) "empty table" 0 (D.live_flows d);
  ignore (D.add_flow d (Workload.Network.flow network 1));
  ignore (D.add_flow d (Workload.Network.flow network 2));
  Alcotest.(check int) "two live" 2 (D.live_flows d);
  Alcotest.(check bool) "has flow 1" true (D.has_flow d 1);
  Alcotest.(check bool) "no flow 3" false (D.has_flow d 3);
  Alcotest.check_raises "duplicate arrival"
    (Invalid_argument (prefix ^ ".add_flow: duplicate flow 1")) (fun () ->
      ignore (D.add_flow d (Workload.Network.flow network 1)));
  Sim.Engine.run_until engine 2.;
  D.end_flow d 1;
  Alcotest.(check bool) "flow 1 retired" false (D.has_flow d 1);
  Alcotest.check_raises "ending a retired flow"
    (Invalid_argument (prefix ^ ".end_flow: unknown flow 1")) (fun () ->
      D.end_flow d 1);
  (* Flow 2 goes silent; advance well past its last emission and sweep. *)
  D.stop_flow d 2;
  Sim.Engine.run_until engine 12.;
  Alcotest.(check int) "not yet stale under a long timeout" 0
    (D.expire_idle d ~timeout:60.);
  Alcotest.(check int) "flow 2 aged out" 1 (D.expire_idle d ~timeout:5.);
  Alcotest.(check int) "table empty again" 0 (D.live_flows d);
  Alcotest.check_raises "bad timeout"
    (Invalid_argument (prefix ^ ".expire_idle: timeout must be positive"))
    (fun () -> ignore (D.expire_idle d ~timeout:0.));
  (* The process-wide flow ledger saw every transition: two arrivals,
     two retirements of which one was an expiry. *)
  Alcotest.(check int) "ledger: created" 2 (Sim.Invariant.flows_created () - created0);
  Alcotest.(check int) "ledger: retired" 2 (Sim.Invariant.flows_retired () - retired0);
  Alcotest.(check int) "ledger: expired" 1 (Sim.Invariant.flows_expired () - expired0)

(* [timeout <= 0.] is false for NaN, so a NaN timeout used to expire
   nothing and raise nothing. *)
let expire_rejects_nan (module D : LIFECYCLE) ~prefix () =
  let engine, network = single_bottleneck ~n:1 () in
  let d = D.build ~rng:(Sim.Rng.create 11) network in
  ignore (D.add_flow d (Workload.Network.flow network 1));
  Sim.Engine.run_until engine 1.;
  D.stop_flow d 1;
  Sim.Engine.run_until engine 46.;
  Alcotest.check_raises "nan timeout"
    (Invalid_argument (prefix ^ ".expire_idle: timeout must be positive"))
    (fun () -> ignore (D.expire_idle d ~timeout:nan));
  Alcotest.(check bool) "flow survives the rejected sweep" true (D.has_flow d 1);
  Alcotest.(check int) "a real timeout expires it" 1 (D.expire_idle d ~timeout:1.)

(* Idle expiry ages a flow from the time its last packet left, which
   the source stamps: observed here as the last arrival of the flow at
   its access link, a sweep one microsecond short of that idle time
   keeps the flow and one at it retires the flow. *)
let expire_counts_from_last_send (module D : LIFECYCLE) () =
  let engine, network = single_bottleneck ~n:2 () in
  let d = D.build ~rng:(Sim.Rng.create 11) network in
  let flow = Workload.Network.flow network 2 in
  let access = Net.Flow.first_link flow network.Workload.Network.topology in
  let last = ref nan in
  access.Net.Link.on_arrival <-
    (fun pkt ->
      if pkt.Net.Packet.flow = 2 then last := Sim.Engine.now engine;
      Net.Link.Pass);
  ignore (D.add_flow d flow);
  Sim.Engine.run_until engine 3.;
  D.stop_flow d 2;
  Sim.Engine.run_until engine 9.;
  let idle = 9. -. !last in
  Alcotest.(check bool) "sent before the stop" true (!last > 0. && !last <= 3.);
  Alcotest.(check int) "just short of the idle time" 0
    (D.expire_idle d ~timeout:(idle +. 1e-6));
  Alcotest.(check int) "at the idle time" 1 (D.expire_idle d ~timeout:idle)

let test_lifecycle_add_end_expire =
  lifecycle_add_end_expire (module Corelite_lifecycle) ~prefix:"Deployment"

let test_csfq_lifecycle_add_end_expire =
  lifecycle_add_end_expire (module Csfq_lifecycle) ~prefix:"Csfq.Deployment"

let test_csfq_lifecycle () =
  let engine, network = single_bottleneck ~n:2 () in
  let d =
    Csfq.Deployment.build ~params:Csfq.Params.default ~rng:(Sim.Rng.create 7)
      ~topology:network.Workload.Network.topology ~flows:[]
      ~core_links:network.Workload.Network.core_links ()
  in
  ignore (Csfq.Deployment.add_flow d (Workload.Network.flow network 1));
  Alcotest.(check int) "one live" 1 (Csfq.Deployment.live_flows d);
  Sim.Engine.run_until engine 2.;
  Csfq.Deployment.end_flow d 1;
  Alcotest.(check int) "empty" 0 (Csfq.Deployment.live_flows d);
  Alcotest.(check bool) "state reclaimed" false (Csfq.Deployment.has_flow d 1)

(* ------------------------------------------------------------------ *)
(* Runner options *)

let test_runner_floor_passthrough () =
  let _, network = single_bottleneck ~n:2 () in
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network ~floors:[ (1, 300.) ]
      ~schedule:[ (0., Workload.Runner.Start 1); (0., Workload.Runner.Start 2) ]
      ~duration:120. ()
  in
  Alcotest.(check bool) "contracted flow holds 300" true
    (Workload.Runner.mean_rate result ~flow:1 ~from:90. ~until:120. >= 295.)

let test_runner_bursty_flow_pauses () =
  let _, network = single_bottleneck ~n:1 () in
  (* Mean on 1 s / off 9 s: the flow is idle most of the time, so its
     goodput is far below the always-on equivalent. *)
  let bursty_result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network
      ~bursty:[ (1, 1., 9.) ]
      ~schedule:[ (0., Workload.Runner.Start 1) ]
      ~duration:100. ()
  in
  let engine2 = Sim.Engine.create () in
  let network2 = Workload.Network.single_bottleneck ~engine:engine2 ~weights:(fun _ -> 1.) 1 in
  let steady_result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network:network2
      ~schedule:[ (0., Workload.Runner.Start 1) ]
      ~duration:100. ()
  in
  let total r =
    match Sim.Timeseries.last (List.assoc 1 r.Workload.Runner.cumulative) with
    | Some (_, v) -> v
    | None -> 0.
  in
  Alcotest.(check bool)
    (Printf.sprintf "bursty delivers much less (%.0f vs %.0f)" (total bursty_result)
       (total steady_result))
    true
    (total bursty_result < 0.5 *. total steady_result)

let test_runner_plain_scheme_only_overflow_drops () =
  let _, network = single_bottleneck ~n:4 () in
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Plain Csfq.Params.default) ~network
      ~schedule:(List.map (fun i -> (0., Workload.Runner.Start i)) (ids 4))
      ~duration:80. ()
  in
  Alcotest.(check string) "scheme name" "plain" result.Workload.Runner.scheme;
  Alcotest.(check int) "no probabilistic drops" 0 result.Workload.Runner.early_drops;
  Alcotest.(check bool) "tail drops happen" true (result.Workload.Runner.core_drops > 0)

let test_runner_delay_metrics_populated () =
  let _, network = single_bottleneck ~n:2 () in
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network
      ~schedule:[ (0., Workload.Runner.Start 1); (0., Workload.Runner.Start 2) ]
      ~duration:60. ()
  in
  List.iter
    (fun (_, mean) ->
      (* At least the 120 ms propagation; far below a second. *)
      Alcotest.(check bool) "plausible mean delay" true (mean > 0.11 && mean < 1.))
    result.Workload.Runner.mean_delays

(* ------------------------------------------------------------------ *)
(* Figures.restart_recovery *)

let test_restart_recovery () =
  let _, network = single_bottleneck ~n:2 () in
  let schedule =
    [
      (0., Workload.Runner.Start 1);
      (0., Workload.Runner.Start 2);
      (60., Workload.Runner.Stop 1);
      (70., Workload.Runner.Start 1);
    ]
  in
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network ~schedule ~duration:200. ()
  in
  (match
     Workload.Figures.restart_recovery result ~flow:1 ~restart_at:70. ~target:250.
       ~fraction:0.8
   with
  | Some t -> Alcotest.(check bool) "recovers within 120 s" true (t > 0. && t < 120.)
  | None -> Alcotest.fail "never recovered");
  Alcotest.(check bool) "unknown flow" true
    (Workload.Figures.restart_recovery result ~flow:9 ~restart_at:0. ~target:1.
       ~fraction:0.5
    = None)

(* ------------------------------------------------------------------ *)
(* Csv corner cases *)

let test_csv_uneven_series_truncated () =
  let a = Sim.Timeseries.create () and b = Sim.Timeseries.create () in
  for i = 1 to 5 do
    Sim.Timeseries.add a (float_of_int i) 1.
  done;
  for i = 1 to 3 do
    Sim.Timeseries.add b (float_of_int i) 2.
  done;
  let path = Filename.temp_file "corelite" ".csv" in
  Workload.Csv.write_series ~path [ (1, a); (2, b) ];
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "header + min(5,3) rows" 4 !lines

let test_csv_empty_series () =
  let path = Filename.temp_file "corelite" ".csv" in
  Workload.Csv.write_series ~path [ (1, Sim.Timeseries.create ()) ];
  let ic = open_in path in
  let header = input_line ic in
  let rest = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header only" "time,flow1" header;
  Alcotest.(check bool) "no rows" true (rest = None)

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

(* ------------------------------------------------------------------ *)
(* Metrics probes *)

let probe_rows ~prefix engine =
  List.length
    (List.filter
       (fun r -> String.starts_with ~prefix r.Sim.Metrics.name)
       (Sim.Metrics.rows (Sim.Engine.metrics engine)))

(* Links and cores register their probes at construction, and only
   while the registry's switch is on: a fresh engine builds none, and
   turning the switch on before the build registers five rows per
   link, five per Corelite core and two per CSFQ core. *)
let test_link_and_core_probes_follow_switch () =
  let build ~on scheme =
    let engine = Sim.Engine.create () in
    if on then Sim.Metrics.set_auto_probes (Sim.Engine.metrics engine) true;
    let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 2 in
    ignore
      (Workload.Runner.deploy ~fault:None scheme ~rng:(Sim.Rng.create 1) ~network ~flows:[]);
    (engine, network)
  in
  let check engine ~links ~corelite_cores ~csfq_cores what =
    Alcotest.(check (list int))
      (what ^ ": link, corelite.core and csfq.core rows")
      [ links; corelite_cores; csfq_cores ]
      (List.map
         (fun prefix -> probe_rows ~prefix engine)
         [ "link."; "corelite.core."; "csfq.core." ])
  in
  let corelite = Workload.Runner.Corelite Corelite.Params.default
  and csfq = Workload.Runner.Csfq Csfq.Params.default in
  let engine, network = build ~on:false corelite in
  check engine ~links:0 ~corelite_cores:0 ~csfq_cores:0 "corelite, fresh engine";
  let engine, _ = build ~on:false csfq in
  check engine ~links:0 ~corelite_cores:0 ~csfq_cores:0 "csfq, fresh engine";
  let links = List.length (Net.Topology.links network.Workload.Network.topology) in
  let cores = List.length network.Workload.Network.core_links in
  let engine, _ = build ~on:true corelite in
  check engine ~links:(5 * links) ~corelite_cores:(5 * cores) ~csfq_cores:0
    "corelite, switch on";
  let engine, _ = build ~on:true csfq in
  check engine ~links:(5 * links) ~corelite_cores:0 ~csfq_cores:(2 * cores)
    "csfq, switch on"

let () =
  Alcotest.run "deployment"
    [
      ( "corelite",
        [
          Alcotest.test_case "duplicate flows" `Quick test_deployment_rejects_duplicate_flows;
          Alcotest.test_case "agents sorted" `Quick test_deployment_agents_sorted;
          Alcotest.test_case "start all and counters" `Slow
            test_deployment_start_all_and_counters;
          Alcotest.test_case "feedback latency" `Quick
            test_feedback_latency_matches_reverse_path;
        ] );
      ( "csfq",
        [
          Alcotest.test_case "no-cores mode" `Slow test_csfq_deployment_no_cores_mode;
          Alcotest.test_case "duplicate flows" `Quick test_csfq_deployment_duplicate;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "add, end, expire and the ledger" `Quick
            test_lifecycle_add_end_expire;
          Alcotest.test_case "csfq soft state" `Quick test_csfq_lifecycle;
          Alcotest.test_case "csfq add, end, expire and the ledger" `Quick
            test_csfq_lifecycle_add_end_expire;
          Alcotest.test_case "nan timeout rejected" `Quick
            (expire_rejects_nan (module Corelite_lifecycle) ~prefix:"Deployment");
          Alcotest.test_case "expiry counts from the last send" `Quick
            (expire_counts_from_last_send (module Corelite_lifecycle));
          Alcotest.test_case "csfq expiry counts from the last send" `Quick
            (expire_counts_from_last_send (module Csfq_lifecycle));
          Alcotest.test_case "csfq nan timeout rejected" `Quick
            (expire_rejects_nan (module Csfq_lifecycle) ~prefix:"Csfq.Deployment");
        ] );
      ( "runner_options",
        [
          Alcotest.test_case "floor passthrough" `Slow test_runner_floor_passthrough;
          Alcotest.test_case "bursty pauses" `Slow test_runner_bursty_flow_pauses;
          Alcotest.test_case "plain scheme drops" `Slow
            test_runner_plain_scheme_only_overflow_drops;
          Alcotest.test_case "delay metrics" `Slow test_runner_delay_metrics_populated;
        ] );
      ( "figures_helpers",
        [ Alcotest.test_case "restart recovery" `Slow test_restart_recovery ] );
      ( "probes",
        [
          Alcotest.test_case "link and core probes follow the switch" `Quick
            test_link_and_core_probes_follow_switch;
        ] );
      ( "csv",
        [
          Alcotest.test_case "uneven series" `Quick test_csv_uneven_series_truncated;
          Alcotest.test_case "empty series" `Quick test_csv_empty_series;
        ] );
    ]
