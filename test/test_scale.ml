(* Scale regression suite: end-to-end fairness on a generated fat-tree
   at 10^4 flows, serial-vs-pooled byte equality of the streaming
   harness, Sim.Invariant ledger balance across the scale lifecycle,
   and edge cases of the flat-array flow table that replaced the
   per-flow Hashtbls (id reuse after expiry, growth past capacity,
   engine reset isolation). *)

let quick_run ~engine ~label ?(n_flows = 200) ?(duration = 4.) ?end_fraction () =
  Workload.Scale.run ~engine ~seed:42 ~label ~graph:(Workload.Scale.Fattree 4)
    ~n_flows ~scheme:Workload.Scale.Corelite ~duration ?end_fraction ~csv:true ()

(* ---- fairness at scale: fat-tree k=8, 10^4 flows ---- *)

(* The ISSUE gate: a quick k=8 run whose measured rates track the
   weighted max-min water-filling reference at Jain >= 0.9. 12 s of
   simulated time is enough for the gentle scale adaptation steps to
   settle near shares of a few pkt/s. *)
let test_fattree_k8_fairness () =
  let engine = Sim.Engine.create () in
  let r =
    Workload.Scale.run ~engine ~seed:42 ~label:"scale/k8-fairness"
      ~graph:(Workload.Scale.Fattree 8) ~n_flows:10_000
      ~scheme:Workload.Scale.Corelite ~duration:12. ~reference:true ()
  in
  Alcotest.(check int) "population instantiated" 10_000 r.Workload.Scale.n_flows;
  Alcotest.(check int) "all flows alive until the drain" 10_000 r.live_at_end;
  Alcotest.(check bool)
    (Printf.sprintf "substantial traffic (delivered %d)" r.delivered)
    true (r.delivered > 100_000);
  (match r.jain_vs_reference with
  | None -> Alcotest.fail "reference requested but not computed"
  | Some jain ->
    if jain < 0.9 then
      Alcotest.failf "Jain vs water-filling %.4f < 0.9 (weighted %.4f)" jain
        r.jain_weighted);
  (* An oversubscribed fat-tree must actually congest: a drop-free run
     means the reference comparison validated nothing. *)
  Alcotest.(check bool)
    (Printf.sprintf "bottlenecks engaged (drops %d)" r.drops)
    true (r.drops > 0)

(* ---- serial = pooled ---- *)

let test_serial_equals_pooled () =
  let scenarios =
    List.map
      (fun tag ->
        {
          Workload.Pool.label = "scale/" ^ tag;
          scenario =
            (fun ~engine ~rng:_ ->
              let r = quick_run ~engine ~label:("scale/" ^ tag) () in
              match r.Workload.Scale.csv with
              | Some csv -> csv
              | None -> Alcotest.fail "csv requested but not produced");
        })
      [ "a"; "b"; "c" ]
  in
  let serial = Workload.Pool.run_scenarios ~domains:1 ~seed:42 scenarios in
  let pooled = Workload.Pool.run_scenarios ~domains:3 ~seed:42 scenarios in
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check string)
        (Printf.sprintf "scenario %d exports byte-identical CSV" i)
        s p)
    (List.combine serial pooled)

(* ---- Sim.Invariant flow ledger ---- *)

let test_ledger_balances () =
  let created0 = Sim.Invariant.flows_created () in
  let retired0 = Sim.Invariant.flows_retired () in
  let expired0 = Sim.Invariant.flows_expired () in
  let engine = Sim.Engine.create () in
  let r = quick_run ~engine ~label:"scale/ledger" ~n_flows:300 ~end_fraction:0.2 () in
  Alcotest.(check int) "60 flows retired early" 60 r.Workload.Scale.ended_early;
  Alcotest.(check int) "240 flows live at the end" 240 r.live_at_end;
  Alcotest.(check int)
    "every flow was declared to the ledger" 300
    (Sim.Invariant.flows_created () - created0);
  Alcotest.(check int)
    "every flow was retired (early enders + the drain)" 300
    (Sim.Invariant.flows_retired () - retired0);
  Alcotest.(check int)
    "no flow expired" 0
    (Sim.Invariant.flows_expired () - expired0)

(* ---- flat flow table edge cases ---- *)

let test_flowtable_growth () =
  let t : int Net.Flowtable.t = Net.Flowtable.create ~capacity:4 () in
  for id = 1 to 200 do
    Net.Flowtable.add t id (id * 10)
  done;
  Alcotest.(check int) "live" 200 (Net.Flowtable.live t);
  Alcotest.(check bool) "capacity grew past 200" true (Net.Flowtable.capacity t > 200);
  Alcotest.(check (option int)) "dense lookup" (Some 1370) (Net.Flowtable.find t 137);
  Alcotest.(check (option int)) "absent id" None (Net.Flowtable.find t 500);
  (* Ascending-id iteration is the replay-determinism contract. *)
  let seen = ref [] in
  Net.Flowtable.iter t (fun id _ -> seen := id :: !seen);
  Alcotest.(check (list int)) "iteration ascending" (List.init 200 (fun i -> i + 1))
    (List.rev !seen);
  Net.Flowtable.remove t 137;
  Net.Flowtable.remove t 137;
  Alcotest.(check int) "remove is idempotent" 199 (Net.Flowtable.live t);
  Alcotest.check_raises "duplicate add rejected"
    (Invalid_argument "Flowtable.add: duplicate flow 1") (fun () ->
      Net.Flowtable.add t 1 0);
  Net.Flowtable.clear t;
  Alcotest.(check int) "clear empties" 0 (Net.Flowtable.live t)

(* A NaN duration used to slip past both checks (every comparison with
   NaN is false) and run nothing. *)
let test_rejects_bad_duration () =
  List.iter
    (fun duration ->
      Alcotest.check_raises
        (Printf.sprintf "duration %g" duration)
        (Invalid_argument "Scale.run: duration must be positive and finite")
        (fun () ->
          ignore (quick_run ~engine:(Sim.Engine.create ()) ~label:"scale/bad" ~duration ())))
    [ nan; infinity; 0. ];
  (* The other time inputs: a NaN end_fraction retired no flow, and a
     NaN measure_from or end_at failed later, in the engine. *)
  let run ?measure_from ?end_fraction ?end_at () =
    ignore
      (Workload.Scale.run ~engine:(Sim.Engine.create ()) ~seed:42 ~label:"scale/bad"
         ~graph:(Workload.Scale.Fattree 4) ~n_flows:16 ~scheme:Workload.Scale.Corelite
         ~duration:4. ?measure_from ?end_fraction ?end_at ())
  in
  Alcotest.check_raises "measure_from nan"
    (Invalid_argument "Scale.run: measure_from must fall inside the run")
    (fun () -> run ~measure_from:nan ());
  Alcotest.check_raises "end_fraction nan"
    (Invalid_argument "Scale.run: end_fraction must be in [0, 1)")
    (fun () -> run ~end_fraction:nan ());
  Alcotest.check_raises "end_at nan"
    (Invalid_argument "Scale.run: end_at must precede measure_from")
    (fun () -> run ~end_fraction:0.5 ~end_at:nan ())

(* A retired slot must be reusable: churn recycles flow ids, and the
   dense table must treat expiry exactly like the Hashtbls did. *)
let test_flow_id_reuse_after_expiry () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1
  in
  let rng = Sim.Rng.scenario ~seed:1 ~id:"scale/reuse" in
  let d =
    Corelite.Deployment.build ~params:Corelite.Params.default ~rng
      ~topology:network.Workload.Network.topology ~flows:[]
      ~core_links:network.Workload.Network.core_links ()
  in
  let flow = Workload.Network.flow network 1 in
  ignore (Corelite.Deployment.add_flow d flow);
  Sim.Engine.run_until engine 1.0;
  Corelite.Deployment.stop_flow d 1;
  Sim.Engine.run_until engine 3.0;
  Alcotest.(check int) "idle flow expired" 1
    (Corelite.Deployment.expire_idle d ~timeout:1.0);
  Alcotest.(check bool) "slot vacated" false (Corelite.Deployment.has_flow d 1);
  ignore (Corelite.Deployment.add_flow d flow);
  Alcotest.(check bool) "same id re-added" true (Corelite.Deployment.has_flow d 1);
  Alcotest.(check int) "one live flow" 1 (Corelite.Deployment.live_flows d);
  Sim.Engine.run_until engine 4.0;
  Alcotest.(check bool) "reincarnated flow sends"
    true
    (Corelite.Edge.sent (Corelite.Deployment.agent d 1) > 0)

let test_engine_reset_clears_scale_state () =
  let engine = Sim.Engine.create () in
  let metrics = Sim.Engine.metrics engine in
  let r1 = quick_run ~engine ~label:"scale/reset" ~n_flows:50 ~duration:2. () in
  Alcotest.(check bool) "auto probes restored after the run" true
    (Sim.Metrics.auto_probes metrics);
  Sim.Engine.reset engine;
  Alcotest.(check int) "event counter cleared" 0 (Sim.Engine.executed engine);
  Alcotest.(check (float 1e-9)) "clock rewound" 0. (Sim.Engine.now engine);
  Alcotest.(check bool) "auto probes restored by reset" true
    (Sim.Metrics.auto_probes metrics);
  (* A reset engine must replay the identical scenario byte-for-byte. *)
  let r2 = quick_run ~engine ~label:"scale/reset" ~n_flows:50 ~duration:2. () in
  Alcotest.(check (option string)) "replay after reset is byte-identical"
    r1.Workload.Scale.csv r2.Workload.Scale.csv

(* ---- per-flow memory budget ---- *)

(* Live-heap bytes one [add_flow] leaves behind on fat-tree k=4: the
   edge agent and its source, the flow-table slot, the first packet and
   the pacing and timer events the start pushes, read with
   [Gc.full_major] around 1,000 add_flows. *)
let bytes_per_add_flow scheme =
  let engine = Sim.Engine.create () in
  let graph = Topo.Fattree.build 4 in
  let fib = Topo.Fib.compute graph in
  let pop =
    Topo.Flows.generate ~seed:42 ~label:"scale/memory" ~graph ~n:1_000 ~max_weight:4 ()
  in
  Sim.Metrics.set_auto_probes (Sim.Engine.metrics engine) false;
  let network =
    Workload.Network.of_topo ~engine ~delay:0.002 ~queue_capacity:40 ~graph ~fib ~flows:pop
      ()
  in
  let driver =
    Workload.Runner.deploy ~fault:None scheme
      ~rng:(Sim.Rng.scenario ~seed:42 ~id:"scale/memory/deploy")
      ~network ~flows:[]
  in
  let live () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let before = live () in
  List.iter (fun flow -> ignore (driver.Workload.Runner.add_flow ~size:0 flow))
    network.Workload.Network.flows;
  let after = live () in
  ignore (Sys.opaque_identity driver);
  8 * (after - before) / 1_000

(* The figure repeats exactly from run to run, so the budget is a
   ratchet like the hot path's 32 minor words per hop below: the value
   measured with OCaml 5.1.1 on 64-bit Linux plus a 32 B margin for
   compiler drift. Lower a budget whenever the state shrinks; never
   raise one. Measured: Corelite 1,078 B, CSFQ 1,034 B; the first
   packet is a pooled one, a 10-word record and a 4-word float
   block. *)
let test_add_flow_memory_budget () =
  let source = Workload.Scale.default_source in
  List.iter
    (fun (name, scheme, budget) ->
      let bytes = bytes_per_add_flow scheme in
      Printf.printf "%s: %d B per add_flow (budget %d B)\n" name bytes budget;
      if bytes > budget then
        Alcotest.failf "%s: %d B per add_flow exceeds the %d B budget" name bytes budget)
    [
      ("corelite", Workload.Runner.Corelite { Corelite.Params.default with source }, 1_089);
      ("csfq", Workload.Runner.Csfq { Csfq.Params.default with source }, 1_066);
    ]

(* ---- packet-pool occupancy ledger ---- *)

(* Packets a link holds: waiting, in service, on the wire. *)
let held links =
  List.fold_left
    (fun acc l ->
      acc + Net.Link.queue_length l
      + (if l.Net.Link.busy then 1 else 0)
      + Sim.Ring.length l.Net.Link.wire)
    0 links

(* Between events every pooled packet sits in some link, so the pool's
   [outstanding] must equal what the links hold at the end of every
   simulated second: a packet neither dropped nor delivered leaves the
   two apart (a missed release), and so does a double count. A run of
   [duration] s on fat-tree k=4; [end_fraction] of the flows retire at
   2 s (churn). *)
let check_pool_ledger ~label ~scheme ~n_flows ~duration ~end_fraction =
  let engine = Sim.Engine.create () in
  let graph = Topo.Fattree.build 4 in
  let fib = Topo.Fib.compute graph in
  let pop = Topo.Flows.generate ~seed:42 ~label ~graph ~n:n_flows ~max_weight:4 () in
  Sim.Metrics.set_auto_probes (Sim.Engine.metrics engine) false;
  let network =
    Workload.Network.of_topo ~engine ~delay:0.002 ~queue_capacity:40 ~graph ~fib ~flows:pop
      ()
  in
  let driver =
    Workload.Runner.deploy ~fault:None scheme
      ~rng:(Sim.Rng.scenario ~seed:42 ~id:(label ^ "/deploy"))
      ~network ~flows:[]
  in
  List.iter (fun flow -> ignore (driver.Workload.Runner.add_flow ~size:0 flow))
    network.Workload.Network.flows;
  let topology = network.Workload.Network.topology in
  let pool = Net.Topology.pool topology in
  let links = Net.Topology.links topology in
  let n_ended = int_of_float (end_fraction *. float_of_int n_flows) in
  let most = ref 0 in
  for second = 1 to duration do
    Sim.Engine.run_until engine (float_of_int second);
    if second = 2 then
      for id = 1 to n_ended do
        driver.Workload.Runner.end_flow id
      done;
    let outstanding = Net.Packet.outstanding pool in
    if outstanding <> held links then
      Alcotest.failf "%s, t = %d s: pool outstanding %d <> %d packets held by links"
        label second outstanding (held links);
    Printf.printf "%s, t = %d s: %d packets outstanding\n" label second outstanding;
    most := Stdlib.max !most outstanding
  done;
  (* The ledger must have been checked against real traffic. *)
  Alcotest.(check bool) "packets in flight" true (!most > 500);
  Alcotest.(check bool) "drops released" true (driver.Workload.Runner.total_drops () > 0)

let test_pool_ledger_corelite () =
  let source = Workload.Scale.default_source in
  check_pool_ledger ~label:"scale/pool-corelite"
    ~scheme:(Workload.Runner.Corelite { Corelite.Params.default with source })
    ~n_flows:1_000 ~duration:6 ~end_fraction:0.

let test_pool_ledger_csfq_churn () =
  let source = Workload.Scale.default_source in
  check_pool_ledger ~label:"scale/pool-csfq"
    ~scheme:(Workload.Runner.Csfq { Csfq.Params.default with source })
    ~n_flows:1_000 ~duration:6 ~end_fraction:0.2

(* ---- hot-path allocation budget ---- *)

(* Minor words per packet-hop of the sub-second figure runs, fig5 to
   fig8. [Gc.minor_words] read around [Figures.run] counts every word
   the run allocates on the minor heap; [Gc.quick_stat]'s count moves
   only at minor collections, so it reads low by whatever the last
   partial minor heap held. Packet-hops are arrivals at every link,
   access links included. This suite leaves Sim.Invariant off: its
   audits allocate (fig5 reads about 100 words per hop with them on).
   The budget is a ratchet like the per-flow memory budget: lower it
   when the hot path sheds an allocation, never raise it. Measured:
   fig5 25.10, fig6 27.77, fig7 25.50, fig8 27.70. *)
let test_hot_path_budget () =
  let budget = 32. in
  let per_hop (spec : Workload.Figures.spec) =
    let before = Gc.minor_words () in
    let result = Workload.Figures.run spec in
    let words = Gc.minor_words () -. before in
    let hops =
      List.fold_left
        (fun acc l -> acc + l.Net.Link.arrivals)
        0
        (Net.Topology.links result.Workload.Runner.network.Workload.Network.topology)
    in
    let per_hop = words /. float_of_int hops in
    Printf.printf "%s: %.2f minor words per packet-hop (budget %.0f)\n"
      spec.Workload.Figures.id per_hop budget;
    (spec.Workload.Figures.id, per_hop)
  in
  let over =
    List.filter
      (fun (_, words) -> words > budget)
      (List.map per_hop Workload.Figures.[ fig5 (); fig6 (); fig7 (); fig8 () ])
  in
  if over <> [] then
    Alcotest.failf "over the %.0f minor words per packet-hop budget: %s" budget
      (String.concat ", "
         (List.map (fun (id, words) -> Printf.sprintf "%s %.2f" id words) over))

let () =
  Alcotest.run "scale"
    [
      ( "fairness",
        [
          Alcotest.test_case "fat-tree k=8, 10^4 flows, Jain >= 0.9 vs reference"
            `Slow test_fattree_k8_fairness;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "serial = pooled (CSV byte equality)" `Quick
            test_serial_equals_pooled;
          Alcotest.test_case "engine reset isolates runs" `Quick
            test_engine_reset_clears_scale_state;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "flow ledger balances" `Quick test_ledger_balances;
          Alcotest.test_case "per-flow memory budget" `Quick test_add_flow_memory_budget;
          Alcotest.test_case "hot-path minor words per packet-hop" `Quick
            test_hot_path_budget;
          Alcotest.test_case "pool ledger: Corelite k=4" `Quick test_pool_ledger_corelite;
          Alcotest.test_case "pool ledger: CSFQ k=4, 20% churn" `Quick
            test_pool_ledger_csfq_churn;
          Alcotest.test_case "flow id reuse after expire_idle" `Quick
            test_flow_id_reuse_after_expiry;
          Alcotest.test_case "rejects bad duration" `Quick test_rejects_bad_duration;
        ] );
      ( "flowtable",
        [ Alcotest.test_case "growth past capacity" `Quick test_flowtable_growth ] );
    ]
