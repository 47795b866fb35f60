(* Tests for Workload.Pool: sharding semantics (order, exceptions,
   inline fallback) and differential determinism of pooled
   regeneration against serial runs. *)

(* ------------------------------------------------------------------ *)
(* Pool.map semantics *)

let squares n = List.init n (fun i -> Workload.Pool.job ~id:(string_of_int i) (fun () -> i * i))

let test_map_empty () =
  Alcotest.(check (list int)) "no jobs" [] (Workload.Pool.map ~domains:4 [])

let test_map_preserves_submission_order () =
  let expected = List.init 37 (fun i -> i * i) in
  Alcotest.(check (list int))
    "serial path" expected
    (Workload.Pool.map ~domains:1 (squares 37));
  Alcotest.(check (list int))
    "parallel path" expected
    (Workload.Pool.map ~domains:4 (squares 37));
  Alcotest.(check (list int))
    "more workers than jobs" [ 0; 1; 4 ]
    (Workload.Pool.map ~domains:16 (squares 3))

let test_map_propagates_exceptions () =
  let jobs =
    [
      Workload.Pool.job ~id:"fine" (fun () -> 1);
      Workload.Pool.job ~id:"boom" (fun () -> failwith "boom");
      Workload.Pool.job ~id:"also fine" (fun () -> 3);
    ]
  in
  Alcotest.check_raises "serial path" (Failure "boom") (fun () ->
      ignore (Workload.Pool.map ~domains:1 jobs));
  Alcotest.check_raises "parallel path" (Failure "boom") (fun () ->
      ignore (Workload.Pool.map ~domains:3 jobs))

let test_map_groups_matches_per_group_map () =
  let groups = [ ("a", squares 3); ("empty", []); ("b", squares 7); ("c", squares 1) ] in
  let expected =
    List.map
      (fun (name, jobs) -> (name, List.map (fun j -> j.Workload.Pool.run ()) jobs))
      groups
  in
  List.iter
    (fun domains ->
      Alcotest.(check (list (pair string (list int))))
        (Printf.sprintf "%d domains" domains)
        expected
        (Workload.Pool.map_groups ~domains groups))
    [ 1; 3 ]

let test_default_domains_positive () =
  Alcotest.(check bool) "at least one worker" true
    (Workload.Pool.default_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Differential determinism: pooled regeneration vs serial *)

let check_payloads what expected actual =
  Alcotest.(check (list (pair string string))) what expected actual

let check_summary what (expected : Workload.Figures.summary) actual =
  (* Structural equality over the whole summary record (floats are
     bit-reproducible by the determinism contract). *)
  Alcotest.(check bool) what true (expected = actual)

(* fig3 and the sub-second figures, fig5 to fig8, in one pooled batch:
   CSV payloads, summaries and executed event counts. *)
let test_fig3_parallel_is_bit_identical () =
  let specs = Workload.Figures.[ fig3 (); fig5 (); fig6 (); fig7 (); fig8 () ] in
  let events (result : Workload.Runner.result) =
    Sim.Engine.executed result.Workload.Runner.network.Workload.Network.engine
  in
  List.iter2
    (fun (spec : Workload.Figures.spec) (_, pooled) ->
      let serial = Workload.Figures.run spec in
      let id = spec.Workload.Figures.id in
      check_payloads (id ^ " CSV payloads")
        (Workload.Csv.result_strings serial)
        (Workload.Csv.result_strings pooled);
      check_summary (id ^ " summaries")
        (Workload.Figures.summarize spec serial)
        (Workload.Figures.summarize spec pooled);
      Alcotest.(check int) (id ^ " executed events") (events serial) (events pooled))
    specs
    (Workload.Figures.run_all ~domains:2 specs)

let test_sweep_parallel_is_bit_identical () =
  let serial = Workload.Sweeps.selector () in
  let pooled =
    match List.assoc_opt "selector variant" (Workload.Sweeps.jobs ()) with
    | Some jobs -> Workload.Pool.map ~domains:2 jobs
    | None -> Alcotest.fail "selector sweep group missing"
  in
  Alcotest.(check int) "same cardinality" (List.length serial) (List.length pooled);
  List.iter2
    (fun (a : Workload.Sweeps.point) (b : Workload.Sweeps.point) ->
      Alcotest.(check string) "label" a.Workload.Sweeps.label b.Workload.Sweeps.label;
      Alcotest.(check bool)
        (Printf.sprintf "point %s identical" a.Workload.Sweeps.label)
        true (a = b))
    serial pooled

let test_replication_parallel_matches_serial () =
  let spec = Workload.Figures.fig5 () in
  let seeds = [ 1; 2; 3 ] in
  let serial = Workload.Replication.replicate_figure ~domains:1 ~seeds spec in
  let pooled = Workload.Replication.replicate_figure ~domains:3 ~seeds spec in
  Alcotest.(check bool) "replication stats identical" true (serial = pooled)

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "empty" `Quick test_map_empty;
          Alcotest.test_case "submission order" `Quick
            test_map_preserves_submission_order;
          Alcotest.test_case "exception propagation" `Quick
            test_map_propagates_exceptions;
          Alcotest.test_case "map_groups = per-group map" `Quick
            test_map_groups_matches_per_group_map;
          Alcotest.test_case "default domains" `Quick test_default_domains_positive;
        ] );
      ( "differential",
        [
          Alcotest.test_case "fig3 parallel = serial" `Slow
            test_fig3_parallel_is_bit_identical;
          Alcotest.test_case "selector sweep parallel = serial" `Quick
            test_sweep_parallel_is_bit_identical;
          Alcotest.test_case "replication parallel = serial" `Quick
            test_replication_parallel_matches_serial;
        ] );
    ]
