(* Regenerates every experiment of the paper in one go:

   - Figures 3-10: runs each scenario, prints the phase summaries and
     writes the full per-second CSV series under results/;
   - the Section 4.1 expected-rate table;
   - the restart-recovery comparison behind the Figures 9/10 discussion;
   - the Section 4.4 sensitivity sweeps and the ablations;
   - seed replication of the Figure 5/6 headline numbers;
   - a pooled scenario battery exercising the per-scenario RNG streams;
   - the chaos battery (robustness extension): marker loss, bursty
     loss, link flaps and router resets, replayable with --fault-seed;
   - the churn battery (robustness extension): Poisson flow arrivals,
     flash crowds, a CLEF-style adversarial heavy hitter and churn
     composed with faults, gated on windowed Jain;
   - policing of an unresponsive firehose under each scheme;
   - raw TCP over each core discipline;
   - the TCP-aggregation extension.

   Every scenario is submitted through Workload.Pool, so the suite
   shards across domains with [-j N]; results and stdout are
   bit-identical to a serial run ([-j 1]) by construction — jobs return
   payloads and only this coordinator prints or touches the filesystem.

   Output feeds EXPERIMENTS.md. Run with: dune exec bin/experiments.exe *)

let results_dir = "results"

let domains = ref (Workload.Pool.default_domains ())

let fault_seed = ref Workload.Chaos.default_fault_seed

let trace_on = ref false

let metrics_on = ref false

(* Observability flags: figure runs are traced with the sparse control-
   plane kinds (per-packet kinds would wrap any reasonable ring over an
   800 s run) and exported to results/<id>_trace.jsonl / .csv; metric
   registries go to results/<id>_metrics.csv. Only this coordinator
   writes files, so pooled runs export the same bytes as serial ones. *)
let trace_spec () =
  Sim.Trace.spec ~capacity:(1 lsl 18) ~kinds:Sim.Trace.control_kinds ()

let write_file ~path payload =
  let oc = open_out path in
  let finally () = close_out oc in
  Fun.protect ~finally (fun () -> output_string oc payload)

let export_observability (spec : Workload.Figures.spec)
    (result : Workload.Runner.result) =
  let engine = result.Workload.Runner.network.Workload.Network.engine in
  let id = spec.Workload.Figures.id in
  if !trace_on then begin
    let tr = Sim.Engine.trace engine in
    write_file
      ~path:(Filename.concat results_dir (id ^ "_trace.jsonl"))
      (Sim.Trace.to_jsonl tr);
    write_file
      ~path:(Filename.concat results_dir (id ^ "_trace.csv"))
      (Sim.Trace.to_csv tr);
    Printf.printf "%s: traced %d events (%d retained)\n" id
      (Sim.Trace.recorded tr) (Sim.Trace.length tr)
  end;
  if !metrics_on then
    write_file
      ~path:(Filename.concat results_dir (id ^ "_metrics.csv"))
      (Workload.Csv.of_metrics (Sim.Engine.metrics engine))

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let figures () =
  hr "Figures 3-10";
  let trace = if !trace_on then Some (trace_spec ()) else None in
  let runs =
    Workload.Figures.run_all ~domains:!domains ?trace ~metrics:!metrics_on
      (Workload.Figures.all ())
  in
  List.iter
    (fun (spec, result) ->
      let summary = Workload.Figures.summarize spec result in
      Workload.Figures.pp_summary Format.std_formatter summary;
      Workload.Csv.write_result ~dir:results_dir ~prefix:spec.Workload.Figures.id
        result;
      export_observability spec result)
    runs;
  Printf.printf "\nCSV series written under %s/\n" results_dir

(* The Section 4.1 hand calculation: Topology 1's weighted max-min
   rates per weight class with 15 and with 20 active flows. *)
let expected_rate_table () =
  hr "Section 4.1 expected-rate table (paper's hand calculation)";
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.topology1 ~engine ~weights:Workload.Figures.weights_s41 ()
  in
  let all = List.init 20 (fun i -> i + 1) in
  let absent = [ 1; 9; 10; 11; 16 ] in
  let fifteen = List.filter (fun i -> not (List.mem i absent)) all in
  let show label active =
    let rates = Workload.Network.expected_rates network ~active in
    let by_weight = Hashtbl.create 4 in
    List.iter
      (fun id ->
        let w = Workload.Figures.weights_s41 id in
        Hashtbl.replace by_weight w (List.assoc id rates))
      active;
    Printf.printf "%-28s" label;
    List.iter
      (fun w ->
        match Hashtbl.find_opt by_weight w with
        | Some r -> Printf.printf "  w=%.0f: %6.2f" w r
        | None -> ())
      [ 1.; 2.; 3. ];
    print_newline ()
  in
  Printf.printf "(rates in pkt/s; paper: 33.33 and 25 per unit weight)\n";
  show "15 flows (t in [0,250))" fifteen;
  show "20 flows (t in [250,500))" all

(* The Figures 9/10 discussion: how fast do restarted high-weight flows
   regain their share? Flow i restarts at i+65; weight-3 flows are 5,
   10 and 15; fair share 71.4 pkt/s. *)
let restart_recovery () =
  hr "Figures 9/10: restart recovery of weight-3 flows (time to 80% of share)";
  let runs =
    Workload.Figures.run_all ~domains:!domains
      [ Workload.Figures.fig9 (); Workload.Figures.fig10 () ]
  in
  List.iter
    (fun ((spec : Workload.Figures.spec), result) ->
      Printf.printf "%-8s:"
        (Workload.Runner.scheme_name spec.Workload.Figures.scheme);
      List.iter
        (fun flow ->
          let restart_at = float_of_int flow +. 65. in
          match
            Workload.Figures.restart_recovery result ~flow ~restart_at ~target:71.4
              ~fraction:0.8
          with
          | Some t -> Printf.printf "  flow %d: %5.1f s" flow t
          | None -> Printf.printf "  flow %d:  none " flow)
        [ 5; 10; 15 ];
      print_newline ())
    runs

(* Queue dynamics at the first congested link under both schemes: the
   "incipient congestion" behaviour the whole design is about. Corelite
   should hover near the 8-packet threshold; CSFQ fills the buffer. *)
let queue_dynamics () =
  hr "Queue dynamics at link C1->C2 (Figure 5/6 workload)";
  let job (spec : Workload.Figures.spec) =
    Workload.Pool.job ~id:(spec.Workload.Figures.id ^ "-queue") (fun () ->
        let engine = Sim.Engine.create () in
        let network = spec.Workload.Figures.make_network ~engine in
        let bottleneck = List.hd network.Workload.Network.core_links in
        let probe = Net.Probe.attach ~engine ~period:0.5 bottleneck in
        let _ =
          Workload.Runner.run ~scheme:spec.Workload.Figures.scheme ~network
            ~schedule:spec.Workload.Figures.schedule
            ~duration:spec.Workload.Figures.duration ()
        in
        let queue = Net.Probe.queue_series probe in
        let mean_queue =
          Option.value ~default:0.
            (Sim.Timeseries.window_mean queue ~from:20. ~until:80.)
        in
        ( Workload.Runner.scheme_name spec.Workload.Figures.scheme,
          mean_queue,
          Net.Probe.peak_queue probe,
          Net.Probe.mean_utilization probe,
          [ (0, queue); (1, Net.Probe.throughput_series probe);
            (2, Net.Probe.drop_series probe) ] ))
  in
  let specs = [ Workload.Figures.fig5 (); Workload.Figures.fig6 () ] in
  let outcomes = Workload.Pool.map ~domains:!domains (List.map job specs) in
  List.iter2
    (fun (spec : Workload.Figures.spec) (scheme, mean_queue, peak, util, series) ->
      Printf.printf
        "%-8s: mean queue %.1f pkts  peak %d/40  utilization %.1f%%\n" scheme
        mean_queue peak (100. *. util);
      Workload.Csv.write_series
        ~path:
          (Filename.concat results_dir
             (Printf.sprintf "%s_queue.csv" spec.Workload.Figures.id))
        series)
    specs outcomes

let sweeps () =
  hr "Section 4.4 sensitivity sweeps and ablations";
  List.iter
    (fun named ->
      Workload.Sweeps.pp_points Format.std_formatter named;
      Format.print_newline ())
    (Workload.Sweeps.all ~domains:!domains ())

(* The Figure 5/6 headline numbers over five workload seeds: the
   spread a single-seed table hides. *)
let replication () =
  hr "Seed replication (Figure 5/6 headline numbers over 5 seeds)";
  List.iter
    (fun (spec : Workload.Figures.spec) ->
      let stats =
        Workload.Replication.replicate_figure ~domains:!domains
          ~seeds:[ 1; 2; 3; 4; 5 ] spec
      in
      Format.printf "%-6s [%-8s] jain %a@." spec.Workload.Figures.id
        (Workload.Runner.scheme_name spec.Workload.Figures.scheme)
        Workload.Replication.pp_stats stats.Workload.Replication.jain;
      Format.printf "                 drops %a@." Workload.Replication.pp_stats
        stats.Workload.Replication.drops;
      Format.printf "                 conv  %a@." Workload.Replication.pp_stats
        stats.Workload.Replication.convergence)
    [ Workload.Figures.fig5 (); Workload.Figures.fig6 () ]

(* A small battery of pool jobs: same Figure 5 workload under all
   three schemes, each scenario on its own engine, drawing from an RNG
   stream derived from (seed, label). The numbers differ
   slightly from the fig5/fig6 tables above because the stream differs
   from the historical root seed — that is the point: adding or
   reordering scenarios here cannot perturb any other scenario's draw
   sequence. *)
let scenario_battery () =
  hr "Pooled scenario battery (per-scenario RNG streams, seed 42)";
  let job (label, scheme) =
    Workload.Pool.job ~id:label (fun () ->
        let engine = Sim.Engine.create () in
        let network =
          Workload.Network.topology1 ~engine
            ~flow_ids:(List.init 10 (fun i -> i + 1))
            ~weights:Workload.Figures.weights_s42 ()
        in
        let result =
          Workload.Runner.run ~scheme ~network
            ~rng:(Sim.Rng.scenario ~seed:42 ~id:label)
            ~schedule:(List.init 10 (fun i -> (0., Workload.Runner.Start (i + 1))))
            ~duration:80. ()
        in
        Printf.sprintf "%-18s jain=%.4f drops=%5d events=%d\n" label
          (Workload.Runner.jain result ~from:50. ~until:80.)
          result.Workload.Runner.core_drops (Sim.Engine.executed engine))
  in
  Workload.Pool.map ~domains:!domains
    (List.map job
       [
         ("battery/corelite", Workload.Runner.Corelite Corelite.Params.default);
         ("battery/csfq", Workload.Runner.Csfq Csfq.Params.default);
         ("battery/plain", Workload.Runner.Plain Csfq.Params.default);
       ])
  |> List.iter print_string

(* The chaos battery: the Figure 5 workload under injected faults
   (marker loss, Gilbert-Elliott bursty loss, link flaps, router
   resets) with edge soft-state recovery armed. Every fault draw
   descends from (--fault-seed, point label), so a chaos run replays
   byte-identically from the flags alone; the CSV goes to results/ for
   comparison across runs. *)
let chaos () =
  hr (Printf.sprintf "Chaos battery (robustness; fault seed %d)" !fault_seed);
  let groups =
    Workload.Chaos.all ~domains:!domains ~fault_seed:!fault_seed ()
  in
  List.iter
    (fun named ->
      Workload.Chaos.pp_points Format.std_formatter named;
      Format.print_newline ())
    groups;
  let path = Filename.concat results_dir "chaos_battery.csv" in
  let oc = open_out path in
  output_string oc (Workload.Chaos.csv_of_groups groups);
  close_out oc;
  Printf.printf "chaos CSV written to %s\n" path

(* The churn battery: Poisson transient arrivals with Pareto sizes, a
   diurnal intensity curve and a mid-run flash crowd over 8 long-lived
   base flows, with edge state created at first packet and aged out by
   the soft-state expiry sweep. Variants add a CLEF-style adversarial
   heavy hitter and churn composed with fault injection; the gated
   metric is windowed Jain against each scheme's own static baseline.
   Every draw descends from (seed, label) or (--fault-seed, label), so
   a churn run replays byte-identically from the flags alone. *)
let churn () =
  hr (Printf.sprintf "Churn battery (dynamic workloads; fault seed %d)" !fault_seed);
  let groups =
    Workload.Churn.all ~domains:!domains ~fault_seed:!fault_seed ()
  in
  List.iter
    (fun named ->
      Workload.Churn.pp_points Format.std_formatter named;
      Format.print_newline ())
    groups;
  let path = Filename.concat results_dir "churn_battery.csv" in
  let oc = open_out path in
  output_string oc (Workload.Churn.csv_of_groups groups);
  close_out oc;
  Printf.printf "churn CSV written to %s\n" path

(* An unresponsive 450 pkt/s flow beside two adaptive ones on one
   500 pkt/s bottleneck: how much of the firehose each scheme lets
   through, and what the adaptive flows keep. *)
let policing () =
  hr "Policing an unresponsive flow (firehose 450 pkt/s + 2 adaptive, fair share 166.7)";
  let job (label, scheme, core_qdisc, corelite_markers) =
    Workload.Pool.job ~id:("policing/" ^ label) (fun () ->
        let engine = Sim.Engine.create () in
        let network =
          Workload.Network.single_bottleneck ~engine ?core_qdisc ~weights:(fun _ -> 1.) 3
        in
        let blaster =
          Workload.Adversary.attach ~network ~flow:1 ~peak:450. ~duty:1. ~period:1.
            ~corelite_markers ()
        in
        let result =
          Workload.Runner.run ~scheme ~network
            ~schedule:[ (0., Workload.Runner.Start 2); (0., Workload.Runner.Start 3) ]
            ~duration:120. ()
        in
        let goodput flow =
          Option.value ~default:0.
            (Sim.Timeseries.window_mean
               (List.assoc flow result.Workload.Runner.goodput_series)
               ~from:90. ~until:120.)
        in
        Printf.sprintf
          "%-16s firehose %.0f pkt/s (%.0f%% survives)  adaptive %.0f / %.0f pkt/s\n"
          label
          (float_of_int (Workload.Adversary.delivered blaster) /. 120.)
          (100. *. Workload.Adversary.survival blaster)
          (goodput 2) (goodput 3))
  in
  let plain = Workload.Runner.Plain Csfq.Params.default in
  let drr () = Net.Qdisc.drr ~weight:(fun _ -> 1.) ~capacity:20 () in
  Workload.Pool.map ~domains:!domains
    (List.map job
       [
         ("csfq", Workload.Runner.Csfq Csfq.Params.default, None, false);
         ("corelite", Workload.Runner.Corelite Corelite.Params.default, None, true);
         ("plain+droptail", plain, None, false);
         ("plain+drr", plain, Some drr, false);
       ])
  |> List.iter print_string

(* Unshaped TCP Reno flows (weights 1:2:3) straight over each core
   discipline; the last row widens CSFQ's fair-share estimation window
   to the RTT scale so TCP bursts do not read as persistent
   congestion. *)
let tcp_direct () =
  hr "Raw TCP over each core discipline (weights 1:2:3, 300 s goodput)";
  let job (label, core_qdisc, attach_csfq, csfq_params) =
    Workload.Pool.job ~id:("tcp/" ^ label) (fun () ->
        let engine = Sim.Engine.create () in
        let network =
          Workload.Network.single_bottleneck ~engine ?core_qdisc
            ~weights:(fun i -> float_of_int i)
            3
        in
        let tcp = Workload.Tcp_direct.build ?csfq_params ~attach_csfq ~network () in
        Workload.Tcp_direct.start tcp;
        Sim.Engine.run_until engine 300.;
        Workload.Tcp_direct.stop tcp;
        Printf.sprintf "%-16s goodput%s  weighted jain=%.3f retx=%d\n" label
          (String.concat ""
             (List.map
                (fun (flow, g) ->
                  Printf.sprintf "  tcp%d=%.0f" flow (float_of_int g /. 300.))
                (Workload.Tcp_direct.goodputs tcp)))
          (Workload.Tcp_direct.jain tcp)
          (Workload.Tcp_direct.total_retransmits tcp))
  in
  let drr () = Net.Qdisc.drr ~weight:(fun flow -> float_of_int flow) ~capacity:20 () in
  let smoothed = { Csfq.Params.default with Csfq.Params.k_link = 0.5 } in
  Workload.Pool.map ~domains:!domains
    (List.map job
       [
         ("droptail", None, false, None);
         ("drr(weighted)", Some drr, false, None);
         ("weighted csfq", None, true, None);
         ("csfq k=500ms", None, true, Some smoothed);
       ])
  |> List.iter print_string

let tcp_extension () =
  hr "Extension: TCP micro-flows in shaped aggregates";
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.single_bottleneck ~engine ~weights:(fun i -> float_of_int i) 2
  in
  let tcp = Workload.Tcp_workload.build ~network ~micro_flows:(fun _ -> 3) () in
  Workload.Tcp_workload.start tcp;
  let snapshot = Hashtbl.create 8 in
  Sim.Engine.schedule_at engine ~time:300. (fun () ->
      List.iter
        (fun (flow, g) -> Hashtbl.replace snapshot flow g)
        (Workload.Tcp_workload.aggregate_goodputs tcp));
  Sim.Engine.run_until engine 400.;
  Workload.Tcp_workload.stop tcp;
  let reference = Workload.Network.expected_rates network ~active:[ 1; 2 ] in
  List.iter
    (fun (flow, total) ->
      let before = Option.value ~default:0 (Hashtbl.find_opt snapshot flow) in
      Printf.printf
        "aggregate %d (w=%.0f): steady goodput %.1f pkt/s (corelite share %.1f)\n" flow
        (Workload.Network.flow network flow).Net.Flow.weight
        (float_of_int (total - before) /. 100.)
        (List.assoc flow reference))
    (Workload.Tcp_workload.aggregate_goodputs tcp)

let () =
  Arg.parse
    [
      ( "-j",
        Arg.Set_int domains,
        "N  shard scenarios over N domains (default: recommended count; \
         results are identical for any N)" );
      ( "--fault-seed",
        Arg.Set_int fault_seed,
        "N  root seed of the chaos battery's fault plans; rerunning with \
         the same seed replays every fault draw byte-identically \
         (default 271828)" );
      ( "--trace",
        Arg.Set trace_on,
        " record control-plane event traces for the figure runs and \
         write results/<fig>_trace.jsonl and .csv" );
      ( "--metrics",
        Arg.Set metrics_on,
        " register the figure runs' metric probes and write \
         results/<fig>_metrics.csv" );
    ]
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "experiments.exe [-j N] [--fault-seed N] [--trace] [--metrics]";
  Printf.printf "Corelite reproduction: full experiment suite\n";
  figures ();
  expected_rate_table ();
  restart_recovery ();
  queue_dynamics ();
  sweeps ();
  replication ();
  scenario_battery ();
  chaos ();
  churn ();
  policing ();
  tcp_direct ();
  tcp_extension ()
