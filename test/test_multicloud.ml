(* Tests for the inter-domain extension: two chained clouds with and
   without hand-off backpressure. *)

let build_chained ?(backpressure = true) () =
  let engine = Sim.Engine.create () in
  let cloud_a =
    Workload.Network.single_bottleneck ~engine ~weights:(fun i -> float_of_int i) 3
  in
  let cloud_b = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 4 in
  let chain = Workload.Multi_cloud.build ~backpressure ~cloud_a ~cloud_b () in
  (engine, chain)

let steady_goodput engine chain ~flow ~from ~until =
  let before = ref 0 in
  Sim.Engine.schedule_at engine ~time:from (fun () ->
      before := Workload.Multi_cloud.delivered chain ~flow);
  Sim.Engine.schedule_at engine ~time:until (fun () -> ());
  fun () ->
    float_of_int (Workload.Multi_cloud.delivered chain ~flow - !before)
    /. (until -. from)

let test_end_to_end_is_min_of_clouds () =
  let engine, chain = build_chained ~backpressure:false () in
  Workload.Multi_cloud.start chain;
  let goodput1 = steady_goodput engine chain ~flow:1 ~from:350. ~until:500. in
  let goodput3 = steady_goodput engine chain ~flow:3 ~from:350. ~until:500. in
  Sim.Engine.run_until engine 500.;
  Workload.Multi_cloud.stop chain;
  (* Flow 1: A-limited near 83; flow 3: B-limited near 125. *)
  Alcotest.(check bool) "flow 1 A-limited" true
    (Float.abs (goodput1 () -. 83.3) < 20.);
  Alcotest.(check bool) "flow 3 B-limited" true
    (Float.abs (goodput3 () -. 125.) < 25.)

let test_backpressure_removes_boundary_waste () =
  let engine_oblivious, oblivious = build_chained ~backpressure:false () in
  Workload.Multi_cloud.start oblivious;
  Sim.Engine.run_until engine_oblivious 400.;
  Workload.Multi_cloud.stop oblivious;
  let engine_bp, with_bp = build_chained ~backpressure:true () in
  Workload.Multi_cloud.start with_bp;
  Sim.Engine.run_until engine_bp 400.;
  Workload.Multi_cloud.stop with_bp;
  let drops chain = Workload.Multi_cloud.handoff_drops chain ~flow:3 in
  Alcotest.(check bool)
    (Printf.sprintf "drops %d -> %d" (drops oblivious) (drops with_bp))
    true
    (drops with_bp * 10 < drops oblivious)

let test_backpressure_approaches_global_maxmin () =
  let engine, chain = build_chained ~backpressure:true () in
  Workload.Multi_cloud.start chain;
  let goodputs =
    List.map
      (fun flow -> steady_goodput engine chain ~flow ~from:350. ~until:500.)
      [ 1; 2; 3 ]
  in
  Sim.Engine.run_until engine 500.;
  Workload.Multi_cloud.stop chain;
  (* Global max-min would give 125 to each of the four flows. *)
  List.iter
    (fun goodput ->
      let g = goodput () in
      Alcotest.(check bool)
        (Printf.sprintf "near 125 (got %.1f)" g)
        true
        (Float.abs (g -. 125.) < 20.))
    goodputs

let test_local_flow_accessors () =
  let _, chain = build_chained () in
  Alcotest.(check bool) "local agent exists" true
    (not (Corelite.Edge.running (Workload.Multi_cloud.local_agent chain ~flow:4)));
  Alcotest.check_raises "chained flow is not local" Not_found (fun () ->
      ignore (Workload.Multi_cloud.local_agent chain ~flow:1));
  Alcotest.check_raises "unknown chain" Not_found (fun () ->
      ignore (Workload.Multi_cloud.agent_a chain ~flow:4))

let test_build_validation () =
  let engine = Sim.Engine.create () in
  let cloud_a = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 2 in
  let engine_b = Sim.Engine.create () in
  let cloud_b =
    Workload.Network.single_bottleneck ~engine:engine_b ~weights:(fun _ -> 1.) 2
  in
  Alcotest.check_raises "different engines"
    (Invalid_argument "Multi_cloud.build: clouds must share one engine") (fun () ->
      ignore (Workload.Multi_cloud.build ~cloud_a ~cloud_b ()))

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  Alcotest.run "multi_cloud"
    [
      ( "chaining",
        [
          Alcotest.test_case "end-to-end is min of clouds" `Slow
            test_end_to_end_is_min_of_clouds;
          Alcotest.test_case "backpressure removes waste" `Slow
            test_backpressure_removes_boundary_waste;
          Alcotest.test_case "backpressure approaches global maxmin" `Slow
            test_backpressure_approaches_global_maxmin;
          Alcotest.test_case "local flow accessors" `Quick test_local_flow_accessors;
          Alcotest.test_case "build validation" `Quick test_build_validation;
        ] );
    ]
