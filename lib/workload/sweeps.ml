type point = {
  label : string;
  jain : float;
  mean_error : float;
  core_drops : int;
  convergence : float option;
  feedback : int;
  mean_delay : float;
}

(* The Figure 5 workload under an arbitrary scheme/queue discipline.
   [measure_flows] restricts the fairness metrics to a subset (used by
   the burst sweep, where application-limited flows have no meaningful
   allowed rate while idle). *)
let run_workload ?delay ?core_qdisc ?(bursty = []) ?burst_distribution
    ?measure_flows ~label scheme =
  let engine = Sim.Engine.create () in
  let core_qdisc = Option.map (fun f -> f engine) core_qdisc in
  let network =
    Network.topology1 ~engine ?delay ?core_qdisc
      ~flow_ids:(List.init 10 (fun i -> i + 1))
      ~weights:Figures.weights_s42 ()
  in
  let schedule = List.init 10 (fun i -> (0., Runner.Start (i + 1))) in
  let result =
    Runner.run ~scheme ~network ~seed:42 ~bursty ?burst_distribution ~schedule
      ~duration:80. ()
  in
  let active = List.init 10 (fun i -> i + 1) in
  let measure = Option.value ~default:active measure_flows in
  let reference = Network.expected_rates network ~active in
  let measured =
    Array.of_list
      (List.map (fun id -> Runner.mean_rate result ~flow:id ~from:50. ~until:80.) measure)
  in
  let expected = Array.of_list (List.map (fun id -> List.assoc id reference) measure) in
  let series =
    List.map
      (fun id ->
        ( Sim.Timeseries.smooth (List.assoc id result.Runner.rate_series) ~window:5.,
          List.assoc id reference ))
      measure
  in
  let delays = List.map snd result.Runner.mean_delays in
  {
    label;
    jain = Runner.jain ~flows:measure result ~from:50. ~until:80.;
    mean_error = Fairness.Metrics.mean_relative_error ~measured ~expected;
    core_drops = result.Runner.core_drops;
    convergence = Fairness.Metrics.convergence_time ~tolerance:0.2 ~hold:5. series;
    feedback = result.Runner.feedback_markers;
    mean_delay =
      List.fold_left ( +. ) 0. delays /. float_of_int (List.length delays);
  }

let run_point ?delay ~label params = run_workload ?delay ~label (Runner.Corelite params)

let base = Corelite.Params.default

(* Every sweep point is a closed pool job: the whole grid is one flat
   job list that workers steal from, so a slow point never serializes a
   group behind it. The per-sweep functions below run the same jobs
   inline, in order, producing byte-identical output. *)

let point_job ?delay ~label params =
  Pool.job ~id:label (fun () -> run_point ?delay ~label params)

let sweep name values apply =
  List.map
    (fun v ->
      let label = Printf.sprintf "%s=%g" name v in
      point_job ~label (apply base v))
    values

let core_epoch_jobs () =
  sweep "core_epoch" [ 0.025; 0.05; 0.1; 0.2; 0.4 ] (fun p v ->
      { p with Corelite.Params.core_epoch = v })

let qthresh_jobs () =
  sweep "qthresh" [ 2.; 4.; 8.; 16.; 24. ] (fun p v ->
      { p with Corelite.Params.qthresh = v })

let k1_jobs () =
  sweep "k1" [ 0.5; 1.; 2.; 4. ] (fun p v -> { p with Corelite.Params.k1 = v })

let latency_jobs () =
  List.map
    (fun d ->
      point_job ~delay:d ~label:(Printf.sprintf "latency=%gms" (1000. *. d)) base)
    [ 0.002; 0.01; 0.04; 0.08 ]

let k_correction_jobs () =
  sweep "k" [ 0.; 0.001; 0.005; 0.02; 0.1 ] (fun p v ->
      { p with Corelite.Params.estimator = Corelite.Congestion.Mm1_cubic v })

let estimator_jobs () =
  [
    point_job ~label:"est=mm1_cubic"
      { base with Corelite.Params.estimator = Corelite.Congestion.Mm1_cubic 0.005 };
    point_job ~label:"est=linear"
      { base with Corelite.Params.estimator = Corelite.Congestion.Linear_excess 0.5 };
    point_job ~label:"est=ewma"
      {
        base with
        Corelite.Params.estimator =
          Corelite.Congestion.Ewma_threshold { gain = 0.3; scale = 0.5 };
      };
  ]

let cache_size_jobs () =
  List.map
    (fun n ->
      point_job
        ~label:(Printf.sprintf "cache=%d" n)
        {
          base with
          Corelite.Params.selector = Corelite.Params.Cache;
          cache_size = n;
        })
    [ 16; 64; 256; 512; 2048 ]

let selector_jobs () =
  [
    point_job ~label:"selector=cache"
      { base with Corelite.Params.selector = Corelite.Params.Cache };
    point_job ~label:"selector=stateless"
      { base with Corelite.Params.selector = Corelite.Params.Stateless };
  ]

let rav_gain_jobs () =
  sweep "rav_gain" [ 0.005; 0.02; 0.1; 0.5 ] (fun p v ->
      { p with Corelite.Params.rav_gain = v })

let wav_gain_jobs () =
  sweep "wav_gain" [ 0.05; 0.25; 0.5; 1.0 ] (fun p v ->
      { p with Corelite.Params.wav_gain = v })

let pw_cap_jobs () =
  sweep "pw_cap" [ 0.5; 1.; 2.; 4. ] (fun p v ->
      { p with Corelite.Params.pw_cap = v })

let edge_epoch_jobs () =
  sweep "edge_epoch" [ 0.1; 0.25; 0.5; 1.0 ] (fun p v ->
      {
        p with
        Corelite.Params.source = { p.Corelite.Params.source with Net.Source.epoch = v };
      })

let burst_jobs () =
  (* Flows 1-5 turn application-limited (exponential on/off, mean 2 s
     each way); flows 6-10 stay backlogged. Fairness should survive for
     the backlogged flows under both selectors — the paper's
     "insensitive to bursty flows" claim. *)
  let bursty = List.init 5 (fun i -> (i + 1, 2., 2.)) in
  (* Metrics cover the backlogged flows 6-10 only; note their reference
     is still the all-active max-min, so some positive error (they
     absorb the bursty flows' slack) is expected — fairness among them
     is the claim under test. *)
  let measure_flows = [ 6; 7; 8; 9; 10 ] in
  let wjob ?bursty ?burst_distribution ~label scheme =
    Pool.job ~id:label (fun () ->
        run_workload ?bursty ?burst_distribution ~measure_flows ~label scheme)
  in
  [
    wjob ~label:"steady+stateless" (Runner.Corelite base);
    wjob ~bursty ~label:"burst+stateless" (Runner.Corelite base);
    wjob ~bursty ~label:"burst+cache"
      (Runner.Corelite { base with Corelite.Params.selector = Corelite.Params.Cache });
    wjob ~bursty ~label:"burst+csfq" (Runner.Csfq Csfq.Params.default);
    (* Heavy-tailed (Pareto 1.5) burst lengths: long-range dependence
       stresses the history-based feedback far more than Markovian
       bursts. *)
    wjob ~bursty ~burst_distribution:(Net.Onoff.Pareto 1.5)
      ~label:"pareto+stateless" (Runner.Corelite base);
  ]

let qdisc_jobs () =
  let red_params = { Net.Qdisc.default_red_params with Net.Qdisc.capacity = 40 } in
  let mk_red engine () =
    Net.Qdisc.red ~params:red_params ~rng:(Sim.Rng.create 97)
      ~now:(fun () -> Sim.Engine.now engine)
      ()
  in
  let mk_fred engine () =
    Net.Qdisc.fred ~params:red_params ~rng:(Sim.Rng.create 98)
      ~now:(fun () -> Sim.Engine.now engine)
      ()
  in
  let wjob ?core_qdisc ~label scheme =
    Pool.job ~id:label (fun () -> run_workload ?core_qdisc ~label scheme)
  in
  [
    wjob ~label:"corelite+droptail" (Runner.Corelite base);
    wjob ~label:"csfq+droptail" (Runner.Csfq Csfq.Params.default);
    wjob ~label:"plain+droptail" (Runner.Plain Csfq.Params.default);
    wjob ~label:"plain+red"
      ~core_qdisc:(fun engine -> mk_red engine)
      (Runner.Plain Csfq.Params.default);
    wjob ~label:"plain+fred"
      ~core_qdisc:(fun engine -> mk_fred engine)
      (Runner.Plain Csfq.Params.default);
    (* The stateful ideal: per-flow DRR scheduling with the flows'
       weights as quanta — what Corelite approximates statelessly. *)
    wjob ~label:"plain+drr"
      ~core_qdisc:(fun _engine () ->
        Net.Qdisc.drr ~weight:(fun flow -> Figures.weights_s42 flow) ~capacity:20 ())
      (Runner.Plain Csfq.Params.default);
  ]

let jobs () =
  [
    ("core epoch (s)", core_epoch_jobs ());
    ("congestion threshold (pkts)", qthresh_jobs ());
    ("marker spacing K1", k1_jobs ());
    ("link latency", latency_jobs ());
    ("cubic coefficient k", k_correction_jobs ());
    ("congestion estimator", estimator_jobs ());
    ("marker cache size", cache_size_jobs ());
    ("selector variant", selector_jobs ());
    ("stateless pw cap", pw_cap_jobs ());
    ("rav EWMA gain", rav_gain_jobs ());
    ("wav EWMA gain", wav_gain_jobs ());
    ("edge adaptation epoch (s)", edge_epoch_jobs ());
    ("queue discipline / scheme (Section 5)", qdisc_jobs ());
    ("bursty sources (Section 2 claim)", burst_jobs ());
  ]

let core_epoch () = Pool.map ~domains:1 (core_epoch_jobs ())

let qthresh () = Pool.map ~domains:1 (qthresh_jobs ())

let k1 () = Pool.map ~domains:1 (k1_jobs ())

let latency () = Pool.map ~domains:1 (latency_jobs ())

let k_correction () = Pool.map ~domains:1 (k_correction_jobs ())

let estimator () = Pool.map ~domains:1 (estimator_jobs ())

let cache_size () = Pool.map ~domains:1 (cache_size_jobs ())

let selector () = Pool.map ~domains:1 (selector_jobs ())

let rav_gain () = Pool.map ~domains:1 (rav_gain_jobs ())

let wav_gain () = Pool.map ~domains:1 (wav_gain_jobs ())

let pw_cap () = Pool.map ~domains:1 (pw_cap_jobs ())

let edge_epoch () = Pool.map ~domains:1 (edge_epoch_jobs ())

let burst () = Pool.map ~domains:1 (burst_jobs ())

let qdisc () = Pool.map ~domains:1 (qdisc_jobs ())

let all ?domains () = Pool.map_groups ?domains (jobs ())

let pp_points ppf (name, points) =
  Format.fprintf ppf "@[<v>-- sensitivity: %s@," name;
  List.iter
    (fun p ->
      Format.fprintf ppf
        "   %-18s jain=%.4f err=%5.1f%% drops=%5d delay=%5.1fms conv=%s@," p.label
        p.jain
        (100. *. p.mean_error)
        p.core_drops
        (1000. *. p.mean_delay)
        (match p.convergence with
        | Some t -> Printf.sprintf "%.1f s" t
        | None -> "none"))
    points;
  Format.fprintf ppf "@]"
