(* Tests for the deterministic fault-injection layer: plan validation,
   injector wiring, the chaos battery's determinism guarantees
   (serial = pooled, passive plan = no plan, replay from seeds), and
   the gates of the chaos and churn batteries in full mode. *)

let check_float = Alcotest.(check (float 0.))

(* ------------------------------------------------------------------ *)
(* Faultplan validation *)

let test_faultplan_rejects_bad_probabilities () =
  Alcotest.check_raises "loss > 1"
    (Invalid_argument "Faultplan.bernoulli: probability 2 outside [0, 1]") (fun () ->
      ignore (Sim.Faultplan.link_fault ~loss:(Sim.Faultplan.Bernoulli 2.) "L"));
  Alcotest.check_raises "nan feedback loss"
    (Invalid_argument "Faultplan.link_fault.feedback_loss: probability nan outside [0, 1]")
    (fun () -> ignore (Sim.Faultplan.link_fault ~feedback_loss:Float.nan "L"))

let test_faultplan_rejects_overlapping_flaps () =
  Alcotest.check_raises "down after up"
    (Invalid_argument "Faultplan.flap: up_at 5 must follow down_at 5") (fun () ->
      ignore (Sim.Faultplan.flap ~down_at:5. ~up_at:5.));
  Alcotest.check_raises "overlap"
    (Invalid_argument
       "Faultplan.link_fault: flaps overlap on L (down at 2 before up at 3)")
    (fun () ->
      ignore
        (Sim.Faultplan.link_fault
           ~flaps:
             [
               Sim.Faultplan.flap ~down_at:1. ~up_at:3.;
               Sim.Faultplan.flap ~down_at:2. ~up_at:4.;
             ]
           "L"))

let test_faultplan_flap_train () =
  let flaps = Sim.Faultplan.flap_train ~first:10. ~period:20. ~down_for:2. ~count:3 in
  Alcotest.(check int) "three flaps" 3 (List.length flaps);
  List.iteri
    (fun i f ->
      check_float "down_at" (10. +. (20. *. float_of_int i)) f.Sim.Faultplan.down_at;
      check_float "up_at" (12. +. (20. *. float_of_int i)) f.Sim.Faultplan.up_at)
    flaps

let test_faultplan_rejects_duplicate_links () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument
       "Faultplan.make: duplicate link fault for L (merge the specs; each link \
        owns one RNG substream)") (fun () ->
      ignore
        (Sim.Faultplan.make ~label:"x" ~seed:1
           ~link_faults:
             [ Sim.Faultplan.link_fault "L"; Sim.Faultplan.link_fault "L" ]
           ()))

let test_faultplan_passive () =
  Alcotest.(check bool) "none is passive" true (Sim.Faultplan.is_passive Sim.Faultplan.none);
  let active =
    Sim.Faultplan.make ~label:"x" ~seed:1
      ~resets:[ Sim.Faultplan.reset ~at:1. (Sim.Faultplan.Edge_agent 1) ]
      ()
  in
  Alcotest.(check bool) "resets are active" false (Sim.Faultplan.is_passive active)

(* ------------------------------------------------------------------ *)
(* Injector wiring *)

let small_network () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.topology1 ~engine
      ~flow_ids:(List.init 4 (fun i -> i + 1))
      ~weights:(fun _ -> 1.) ()
  in
  (engine, network)

let test_fault_apply_unknown_link () =
  let _, network = small_network () in
  let plan =
    Sim.Faultplan.make ~label:"x" ~seed:1
      ~link_faults:[ Sim.Faultplan.link_fault ~feedback_loss:0.5 "no-such-link" ]
      ()
  in
  Alcotest.check_raises "unknown link"
    (Invalid_argument "Fault.apply: unknown link no-such-link") (fun () ->
      ignore (Net.Fault.apply ~topology:network.Workload.Network.topology plan))

let test_fault_apply_rejects_doubly_matched_link () =
  let _, network = small_network () in
  let name = (List.hd network.Workload.Network.core_links).Net.Link.name in
  let plan =
    Sim.Faultplan.make ~label:"x" ~seed:1
      ~link_faults:
        [
          Sim.Faultplan.link_fault ~feedback_loss:0.5 "*";
          Sim.Faultplan.link_fault ~feedback_loss:0.5 name;
        ]
      ()
  in
  Alcotest.check_raises "wildcard + exact overlap"
    (Invalid_argument
       ("Fault.apply: link " ^ name ^ " matched by two fault specs (merge them)"))
    (fun () -> ignore (Net.Fault.apply ~topology:network.Workload.Network.topology plan))

let test_resets_require_corelite () =
  let _, network = small_network () in
  let plan =
    Sim.Faultplan.make ~label:"x" ~seed:1
      ~resets:[ Sim.Faultplan.reset ~at:5. (Sim.Faultplan.Core_router "C1->C2") ]
      ()
  in
  Alcotest.check_raises "csfq cannot reset routers"
    (Invalid_argument "Runner.run: router resets require the Corelite scheme")
    (fun () ->
      ignore
        (Workload.Runner.run ~scheme:(Workload.Runner.Csfq Csfq.Params.default)
           ~network ~fault:plan
           ~schedule:[ (0., Workload.Runner.Start 1) ]
           ~duration:1. ()))

let test_reset_unknown_targets_rejected () =
  let run resets =
    let _, network = small_network () in
    let plan = Sim.Faultplan.make ~label:"x" ~seed:1 ~resets () in
    ignore
      (Workload.Runner.run
         ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
         ~network ~fault:plan
         ~schedule:[ (0., Workload.Runner.Start 1) ]
         ~duration:1. ())
  in
  Alcotest.check_raises "unknown core"
    (Invalid_argument "Deployment.schedule_resets: no core on link bogus") (fun () ->
      run [ Sim.Faultplan.reset ~at:0.5 (Sim.Faultplan.Core_router "bogus") ]);
  Alcotest.check_raises "unknown agent"
    (Invalid_argument "Deployment.schedule_resets: no agent for flow 99") (fun () ->
      run [ Sim.Faultplan.reset ~at:0.5 (Sim.Faultplan.Edge_agent 99) ])

(* ------------------------------------------------------------------ *)
(* Determinism guarantees *)

let corelite_run ?fault () =
  let _, network = small_network () in
  let schedule = List.init 4 (fun i -> (0., Workload.Runner.Start (i + 1))) in
  Workload.Runner.run
    ~scheme:(Workload.Runner.Corelite Workload.Chaos.recovery_params)
    ~network ?fault ~schedule ~duration:20. ()

let fingerprint (r : Workload.Runner.result) =
  let series =
    List.concat_map
      (fun (flow, ts) ->
        Array.to_list
          (Array.map
             (fun (t, v) -> Printf.sprintf "%d:%.17g:%.17g" flow t v)
             (Sim.Timeseries.to_array ts)))
      r.Workload.Runner.goodput_series
  in
  String.concat ";"
    (Printf.sprintf "drops=%d fb=%d" r.Workload.Runner.core_drops
       r.Workload.Runner.feedback_markers
    :: series)

(* A passive plan must leave the run byte-identical to no plan at all:
   the injector draws nothing, installs nothing, schedules nothing. *)
let test_passive_plan_is_free () =
  let bare = fingerprint (corelite_run ()) in
  let passive =
    fingerprint
      (corelite_run ~fault:(Sim.Faultplan.make ~label:"passive" ~seed:7 ()) ())
  in
  Alcotest.(check string) "byte-identical" bare passive

(* Same plan, same seeds -> byte-identical faulted run (replay); a
   different fault seed perturbs it (the faults are actually live). *)
let test_faulted_run_replays_from_seed () =
  let faulted seed =
    let plan =
      Sim.Faultplan.make ~label:"replay" ~seed
        ~link_faults:
          [
            Sim.Faultplan.link_fault ~loss:(Sim.Faultplan.Bernoulli 0.1)
              ~target:Sim.Faultplan.Markers_only ~feedback_loss:0.1 "*";
          ]
        ()
    in
    fingerprint (corelite_run ~fault:plan ())
  in
  Alcotest.(check string) "same seed replays" (faulted 1) (faulted 1);
  Alcotest.(check bool) "different seed diverges" true (faulted 1 <> faulted 2)

(* The battery's own currency: pooled execution must produce CSV bytes
   equal to serial execution, over the whole quick battery. The full
   battery's pooled CSV is pinned by results/chaos_battery.csv, which
   bin/experiments.exe regenerates on 2 domains. *)
let test_battery_serial_equals_pooled () =
  let csv domains =
    Workload.Chaos.csv_of_groups (Workload.Chaos.all ~domains ~quick:true ())
  in
  Alcotest.(check string) "quick battery CSV" (csv 1) (csv 2)

(* ------------------------------------------------------------------ *)
(* Chaos + churn composition *)

(* A fault plan applied to a churn scenario must replay byte-
   identically: the injector is installed before the first arrival is
   scheduled, the plan's draws descend from (fault_seed, label) and the
   workload's from (seed, label), never interleaved. The currency is
   the battery CSV, as in results/churn_battery.csv. *)
let test_churn_faults_replay () =
  let csv fault_seed =
    Workload.Churn.csv_of_points
      [
        Workload.Churn.run_point ~quick:true ~fault_seed
          ~scheme:Workload.Churn.Corelite ~variant:Workload.Churn.Faulty ();
      ]
  in
  Alcotest.(check string) "same fault seed replays" (csv 271828) (csv 271828);
  Alcotest.(check bool) "different fault seed diverges" true
    (csv 271828 <> csv 1)

let test_churn_serial_equals_pooled () =
  let jobs () =
    List.map
      (fun scheme ->
        Workload.Churn.point_job ~quick:true ~scheme
          ~variant:Workload.Churn.Faulty ())
      [ Workload.Churn.Csfq; Workload.Churn.Drr ]
  in
  Alcotest.(check string) "churn+faults points"
    (Workload.Churn.csv_of_points
       (List.map (fun j -> j.Workload.Pool.run ()) (jobs ())))
    (Workload.Churn.csv_of_points (Workload.Pool.map ~domains:2 (jobs ())))

(* ------------------------------------------------------------------ *)
(* Battery gates (full mode) *)

(* At 10% uniform marker loss the weighted Jain index keeps at least
   90% of its loss-free value; only the two points the gate reads run.
   The index is the battery's: Jain of the rates the edges allow over
   the steady window. It cannot see the marker-loss runaway
   (EXPERIMENTS.md, "Chaos runs"): under marker loss the silence
   restore inflates every flow's allowed rate far past what the links
   carry, and Jain of the inflated rates stays near 1 while delivered
   fairness collapses. *)
let test_chaos_marker_loss_gate () =
  let jobs = List.assoc "marker loss" (Workload.Chaos.jobs ()) in
  let jain label =
    match List.find_opt (fun j -> String.equal j.Workload.Pool.id label) jobs with
    | Some j -> (j.Workload.Pool.run ()).Workload.Chaos.jain
    | None -> Alcotest.failf "no chaos point %s" label
  in
  let free = jain "marker_loss=0" and lossy = jain "marker_loss=0.1" in
  Alcotest.(check bool)
    (Printf.sprintf "jain at 10%% marker loss %.6f >= 0.9 x loss-free %.6f" lossy free)
    true
    (lossy >= 0.9 *. free)

(* The full churn battery on one domain, shared by the two churn gates. *)
let churn_battery = lazy (Workload.Churn.all ~domains:1 ())

(* Corelite's windowed Jain under churn, under the CLEF-style adversary
   and under churn with faults keeps at least 85% of its static
   baseline. *)
let test_churn_fairness_gate () =
  List.iter
    (fun (variant, jain, baseline, pass) ->
      Alcotest.(check bool)
        (Printf.sprintf "corelite %s windowed jain %.6f >= 0.85 x static %.6f" variant
           jain baseline)
        true pass)
    (Workload.Churn.gate ~ratio:0.85 (List.assoc "corelite" (Lazy.force churn_battery)))

(* No point of the battery, whatever the scheme, leaves a flow's edge
   soft state behind after the drain. *)
let test_churn_nothing_leaks () =
  List.iter
    (fun (pt : Workload.Churn.point) ->
      Alcotest.(check int) (pt.label ^ " leaked flows") 0 pt.leaked)
    (List.concat_map snd (Lazy.force churn_battery))

let () =
  Alcotest.run "chaos"
    [
      ( "faultplan",
        [
          Alcotest.test_case "bad probabilities" `Quick
            test_faultplan_rejects_bad_probabilities;
          Alcotest.test_case "overlapping flaps" `Quick
            test_faultplan_rejects_overlapping_flaps;
          Alcotest.test_case "flap train" `Quick test_faultplan_flap_train;
          Alcotest.test_case "duplicate links" `Quick
            test_faultplan_rejects_duplicate_links;
          Alcotest.test_case "passive" `Quick test_faultplan_passive;
        ] );
      ( "injector",
        [
          Alcotest.test_case "unknown link" `Quick test_fault_apply_unknown_link;
          Alcotest.test_case "doubly matched link" `Quick
            test_fault_apply_rejects_doubly_matched_link;
          Alcotest.test_case "resets need corelite" `Quick test_resets_require_corelite;
          Alcotest.test_case "unknown reset targets" `Quick
            test_reset_unknown_targets_rejected;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "passive plan is free" `Quick test_passive_plan_is_free;
          Alcotest.test_case "replay from seed" `Quick
            test_faulted_run_replays_from_seed;
          Alcotest.test_case "serial = pooled" `Slow test_battery_serial_equals_pooled;
        ] );
      ( "churn composition",
        [
          Alcotest.test_case "churn+faults replays from seed" `Slow
            test_churn_faults_replay;
          Alcotest.test_case "churn+faults serial = pooled" `Slow
            test_churn_serial_equals_pooled;
        ] );
      ( "gates",
        [
          Alcotest.test_case "chaos marker-loss jain >= 0.9" `Slow
            test_chaos_marker_loss_gate;
          Alcotest.test_case "churn corelite jain >= 0.85" `Slow test_churn_fairness_gate;
          Alcotest.test_case "churn leaks no flow state" `Slow test_churn_nothing_leaks;
        ] );
    ]
