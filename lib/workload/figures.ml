type phase = {
  label : string;
  from_t : float;
  until_t : float;
  active : int list;
}

type spec = {
  id : string;
  title : string;
  scheme : Runner.scheme;
  make_network : engine:Sim.Engine.t -> Network.t;
  schedule : (float * Runner.action) list;
  duration : float;
  phases : phase list;
  conv_tolerance : float;
}

let weights_s41 = function 5 | 15 -> 3. | 1 | 11 | 16 -> 1. | _ -> 2.

let weights_s43 = function 5 | 10 | 15 -> 3. | 1 | 11 | 16 -> 1. | _ -> 2.

let weights_s42 i = float_of_int ((i + 1) / 2)

let ids n = List.init n (fun i -> i + 1)

let corelite = Runner.Corelite Corelite.Params.default

let csfq = Runner.Csfq Csfq.Params.default

(* Figures 3/4: network dynamics over 800 s (Section 4.1). *)
let fig34 ~id ~title () =
  let late = [ 1; 9; 10; 11; 16 ] in
  let early = List.filter (fun i -> not (List.mem i late)) (ids 20) in
  let schedule =
    List.map (fun i -> (0., Runner.Start i)) early
    @ List.map (fun i -> (250., Runner.Start i)) late
    @ List.map (fun i -> (500., Runner.Stop i)) late
    @ List.map (fun i -> (750., Runner.Stop i)) early
  in
  {
    id;
    title;
    scheme = corelite;
    make_network =
      (fun ~engine -> Network.topology1 ~engine ~weights:weights_s41 ());
    schedule;
    duration = 800.;
    conv_tolerance = 0.2;
    phases =
      [
        { label = "t in [0,250): 15 flows"; from_t = 100.; until_t = 245.; active = early };
        { label = "t in [250,500): 20 flows"; from_t = 350.; until_t = 495.; active = ids 20 };
        { label = "t in [500,750): 15 flows"; from_t = 600.; until_t = 745.; active = early };
      ];
  }

let fig3 () =
  fig34 ~id:"fig3" ~title:"Instantaneous rate, network dynamics (Corelite)" ()

let fig4 () =
  fig34 ~id:"fig4" ~title:"Cumulative service, network dynamics (Corelite)" ()

(* Figures 5/6: simultaneous startup of 10 flows (Section 4.2). *)
let fig56 ~id ~title ~scheme () =
  {
    id;
    title;
    scheme;
    make_network =
      (fun ~engine ->
        Network.topology1 ~engine ~flow_ids:(ids 10) ~weights:weights_s42 ());
    schedule = List.map (fun i -> (0., Runner.Start i)) (ids 10);
    duration = 80.;
    conv_tolerance = 0.2;
    phases =
      [ { label = "steady state"; from_t = 50.; until_t = 80.; active = ids 10 } ];
  }

let fig5 () = fig56 ~id:"fig5" ~title:"Simultaneous startup (Corelite)" ~scheme:corelite ()

let fig6 () = fig56 ~id:"fig6" ~title:"Simultaneous startup (CSFQ)" ~scheme:csfq ()

(* Figures 7/8: 20 flows entering 1 s apart (Section 4.3). *)
let fig78 ~id ~title ~scheme () =
  {
    id;
    title;
    scheme;
    make_network =
      (fun ~engine -> Network.topology1 ~engine ~weights:weights_s43 ());
    schedule = List.map (fun i -> (float_of_int i, Runner.Start i)) (ids 20);
    duration = 80.;
    conv_tolerance = 0.35;
    phases =
      [ { label = "steady state"; from_t = 50.; until_t = 80.; active = ids 20 } ];
  }

let fig7 () = fig78 ~id:"fig7" ~title:"Staggered startup (Corelite)" ~scheme:corelite ()

let fig8 () = fig78 ~id:"fig8" ~title:"Staggered startup (CSFQ)" ~scheme:csfq ()

(* Figures 9/10: staggered start, 60 s life, restart 5 s after stopping. *)
let fig910 ~id ~title ~scheme () =
  let schedule =
    List.concat_map
      (fun i ->
        let t = float_of_int i in
        [
          (t, Runner.Start i); (t +. 60., Runner.Stop i); (t +. 65., Runner.Start i);
        ])
      (ids 20)
  in
  {
    id;
    title;
    scheme;
    make_network =
      (fun ~engine -> Network.topology1 ~engine ~weights:weights_s43 ());
    schedule;
    duration = 160.;
    conv_tolerance = 0.35;
    phases =
      [
        { label = "first lives"; from_t = 40.; until_t = 60.; active = ids 20 };
        { label = "after churn"; from_t = 120.; until_t = 155.; active = ids 20 };
      ];
  }

let fig9 () = fig910 ~id:"fig9" ~title:"Flow churn (Corelite)" ~scheme:corelite ()

let fig10 () = fig910 ~id:"fig10" ~title:"Flow churn (CSFQ)" ~scheme:csfq ()

let all () =
  [ fig3 (); fig4 (); fig5 (); fig6 (); fig7 (); fig8 (); fig9 (); fig10 () ]

let run ?(seed = 42) ?trace ?(metrics = false) spec =
  let engine = Sim.Engine.create () in
  Sim.Metrics.set_auto_probes (Sim.Engine.metrics engine) metrics;
  let network = spec.make_network ~engine in
  Runner.run ~scheme:spec.scheme ~network ~seed ?trace ~schedule:spec.schedule
    ~duration:spec.duration ()

(* Figure scenarios keep their historical RNG derivation (the root seed
   itself), so published tables survive; the job closure is what the
   pool shards. Each job creates its own engine, so traces stay
   isolated per scenario whether jobs run serially or on domains. *)
let job ?seed ?trace ?metrics spec =
  Pool.job ~id:spec.id (fun () -> run ?seed ?trace ?metrics spec)

let run_all ?domains ?seed ?trace ?metrics specs =
  List.combine specs (Pool.map ?domains (List.map (job ?seed ?trace ?metrics) specs))

type flow_row = { flow : int; weight : float; measured : float; expected : float }

type phase_summary = {
  phase : phase;
  rows : flow_row list;
  jain : float;
  mean_error : float;
  goodput_jain : float;
  goodput_error : float;
}

type summary = {
  spec_id : string;
  title : string;
  scheme : string;
  phase_summaries : phase_summary list;
  core_drops : int;
  feedback_markers : int;
  early_drops : int;
  convergence : float option;
}

let summarize_phase (result : Runner.result) phase =
  let network = result.Runner.network in
  let reference = Network.expected_rates network ~active:phase.active in
  let rows =
    List.map
      (fun id ->
        let f = Network.flow network id in
        {
          flow = id;
          weight = f.Net.Flow.weight;
          measured =
            Runner.mean_rate result ~flow:id ~from:phase.from_t ~until:phase.until_t;
          expected = List.assoc id reference;
        })
      phase.active
  in
  let measured = Array.of_list (List.map (fun r -> r.measured) rows) in
  let expected = Array.of_list (List.map (fun r -> r.expected) rows) in
  (* Goodput view: for loss-based schemes the sending rate overshoots
     and the drops shave it; the delivered rate is the honest number. *)
  let goodput =
    Array.of_list
      (List.map
         (fun id ->
           Option.value ~default:0.
             (Sim.Timeseries.window_mean
                (List.assoc id result.Runner.goodput_series)
                ~from:phase.from_t ~until:phase.until_t))
         phase.active)
  in
  let weights =
    Array.of_list
      (List.map (fun id -> (Network.flow network id).Net.Flow.weight) phase.active)
  in
  {
    phase;
    rows;
    jain =
      Runner.jain ~flows:phase.active result ~from:phase.from_t ~until:phase.until_t;
    mean_error = Fairness.Metrics.mean_relative_error ~measured ~expected;
    goodput_jain = Fairness.Metrics.jain_index ~rates:goodput ~weights;
    goodput_error = Fairness.Metrics.mean_relative_error ~measured:goodput ~expected;
  }

let startup_convergence ~tolerance (result : Runner.result) phase =
  let network = result.Runner.network in
  let reference = Network.expected_rates network ~active:phase.active in
  (* Smooth away the LIMD sawtooth: convergence is about the plateau, as
     in the paper's figures. *)
  let series =
    List.map
      (fun id ->
        ( Sim.Timeseries.smooth (List.assoc id result.Runner.rate_series) ~window:5.,
          List.assoc id reference ))
      phase.active
  in
  Fairness.Metrics.convergence_time ~tolerance ~hold:5. series

let summarize spec (result : Runner.result) =
  {
    spec_id = spec.id;
    title = spec.title;
    scheme = result.Runner.scheme;
    phase_summaries = List.map (summarize_phase result) spec.phases;
    core_drops = result.Runner.core_drops;
    feedback_markers = result.Runner.feedback_markers;
    early_drops = result.Runner.early_drops;
    convergence =
      (match spec.phases with
      | first :: _ ->
        startup_convergence ~tolerance:spec.conv_tolerance result first
      | [] -> None);
  }

(* Time for a restarted flow to regain [fraction] of its reference
   rate (3 s-smoothed), measured from [restart_at]. *)
let restart_recovery (result : Runner.result) ~flow ~restart_at ~target ~fraction =
  match List.assoc_opt flow result.Runner.rate_series with
  | None -> None
  | Some ts ->
    let smoothed = Sim.Timeseries.smooth ts ~window:3. in
    let goal = fraction *. target in
    let found = ref None in
    Sim.Timeseries.iter smoothed (fun t v ->
        if !found = None && t >= restart_at && v >= goal then found := Some (t -. restart_at));
    !found

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>== %s: %s [%s] ==@," s.spec_id s.title s.scheme;
  List.iter
    (fun ps ->
      Format.fprintf ppf
        "-- %s (window %.0f-%.0f s): jain=%.4f mean_err=%.1f%% (goodput: jain=%.4f err=%.1f%%)@,"
        ps.phase.label ps.phase.from_t ps.phase.until_t ps.jain
        (100. *. ps.mean_error) ps.goodput_jain
        (100. *. ps.goodput_error);
      List.iter
        (fun r ->
          Format.fprintf ppf "   flow %2d (w=%.0f): measured %6.1f  expected %6.1f@,"
            r.flow r.weight r.measured r.expected)
        ps.rows)
    s.phase_summaries;
  (match s.convergence with
  | Some t -> Format.fprintf ppf "convergence: %.1f s@," t
  | None -> Format.fprintf ppf "convergence: not reached@,");
  Format.fprintf ppf "core drops: %d  feedback markers: %d  early drops: %d@]@."
    s.core_drops s.feedback_markers s.early_drops
