type point = {
  label : string;
  level : float;
  jain : float;
  goodput : float;
  core_drops : int;
  injected_drops : int;
  stripped_markers : int;
  lost_feedback : int;
  flaps : int;
  feedback : int;
}

let default_fault_seed = 271828

(* Soft-state recovery on: feedback silence is a first-class condition
   in every chaos scenario (markers lost, cores resetting), so the
   edges run with the multiplicative restoration extension armed. The
   fault-free baseline point runs with the same parameters, so the
   degradation curves isolate the faults, not a parameter change —
   the cost is that armed edges probe multiplicatively whenever
   feedback goes quiet, which even fault-free means periodic
   overshoot-and-throttle cycles (visible as the baseline's nonzero
   core_drops; the figure goldens run with recovery off and stay
   lossless). *)
let recovery_params =
  let d = Corelite.Params.default in
  {
    d with
    Corelite.Params.source =
      { d.Corelite.Params.source with Net.Source.silence_epochs = 4; restore = 2. };
  }

(* One chaos run: the Figure 5 workload (flows 1-10 of the paper's
   topology, all backlogged from t=0) with a fault plan injected.
   [quick] shortens the run for smoke tests; the measurement window is
   always the last 3/8 of the run, matching the 50-80 s window the
   fault-free sweeps measure on an 80 s run. *)
let run_point ?(seed = 42) ?(quick = false) ~label ~plan_of () =
  let duration = if quick then 32. else 80. in
  let from = duration *. 5. /. 8. in
  let engine = Sim.Engine.create () in
  let network =
    Network.topology1 ~engine
      ~flow_ids:(List.init 10 (fun i -> i + 1))
      ~weights:Figures.weights_s42 ()
  in
  let level, plan = plan_of ~network ~duration in
  let schedule = List.init 10 (fun i -> (0., Runner.Start (i + 1))) in
  let result =
    Runner.run ~scheme:(Runner.Corelite recovery_params) ~network ~seed ~fault:plan
      ~schedule ~duration ()
  in
  let ids = List.init 10 (fun i -> i + 1) in
  let goodput =
    List.fold_left
      (fun acc id ->
        let ts = List.assoc id result.Runner.goodput_series in
        acc +. Option.value ~default:0. (Sim.Timeseries.window_mean ts ~from ~until:duration))
      0. ids
  in
  let stats =
    Option.value
      ~default:
        { Runner.injected_drops = 0; stripped_markers = 0; lost_feedback = 0; flaps = 0 }
      result.Runner.fault
  in
  {
    label;
    level;
    jain = Runner.jain result ~from ~until:duration;
    goodput;
    core_drops = result.Runner.core_drops;
    injected_drops = stats.Runner.injected_drops;
    stripped_markers = stats.Runner.stripped_markers;
    lost_feedback = stats.Runner.lost_feedback;
    flaps = stats.Runner.flaps;
    feedback = result.Runner.feedback_markers;
  }

let point_job ?seed ?quick ~label plan_of =
  Pool.job ~id:label (fun () -> run_point ?seed ?quick ~label ~plan_of ())

(* --- the battery ------------------------------------------------- *)

(* Uniform marker loss: every core link corrupts the piggybacked
   marker of each passing packet with probability [p] (the payload
   survives — pure control-plane loss) and suppresses each feedback
   marker with the same probability. [p = 0] is the fault-free
   baseline the degradation curve is normalized against. *)
let marker_loss_jobs ?seed ?quick ~fault_seed () =
  List.map
    (fun p ->
      let label = Printf.sprintf "marker_loss=%g" p in
      point_job ?seed ?quick ~label (fun ~network ~duration:_ ->
          let link_faults =
            if Sim.Floats.is_zero ~tolerance:0. p then []
            else
              List.map
                (fun link ->
                  Sim.Faultplan.link_fault
                    ~loss:(Sim.Faultplan.Bernoulli p)
                    ~target:Sim.Faultplan.Markers_only ~feedback_loss:p
                    link.Net.Link.name)
                network.Network.core_links
          in
          (p, Sim.Faultplan.make ~label ~seed:fault_seed ~link_faults ())))
    [ 0.; 0.02; 0.05; 0.1; 0.2; 0.4 ]

(* Bursty data-path loss: a Gilbert-Elliott channel on every core link
   destroying whole packets (markers included) while in the bad state.
   The level is the bad-state loss probability; dwell times (mean 2.5 s
   bad, 50 s good at the 0.1 s epoch scale) stress the epoch-averaged
   estimators far more than uniform loss of equal mean. *)
let burst_loss_jobs ?seed ?quick ~fault_seed () =
  List.map
    (fun loss_bad ->
      let label = Printf.sprintf "burst_loss=%g" loss_bad in
      point_job ?seed ?quick ~label (fun ~network ~duration:_ ->
          let link_faults =
            List.map
              (fun link ->
                Sim.Faultplan.link_fault
                  ~loss:
                    (Sim.Faultplan.Gilbert_elliott
                       {
                         p_good_bad = 0.0005;
                         p_bad_good = 0.01;
                         loss_good = 0.;
                         loss_bad;
                       })
                  ~target:Sim.Faultplan.All_packets link.Net.Link.name)
              network.Network.core_links
          in
          (loss_bad, Sim.Faultplan.make ~label ~seed:fault_seed ~link_faults ())))
    [ 0.05; 0.2; 0.5 ]

(* Link flaps: the middle core link (C2->C3) goes down for [down_for]
   seconds periodically. The level is the flap period in (scaled)
   seconds — shorter period, more outages per run. *)
let flap_jobs ?seed ?quick ~fault_seed () =
  List.map
    (fun period_frac ->
      let label = Printf.sprintf "flap_period=%g" period_frac in
      point_job ?seed ?quick ~label (fun ~network:_ ~duration ->
          let period = duration *. period_frac in
          let first = duration /. 4. in
          let count = int_of_float ((duration -. first) /. period) in
          let flaps =
            Sim.Faultplan.flap_train ~first ~period ~down_for:(duration /. 40.) ~count
          in
          ( period_frac,
            Sim.Faultplan.make ~label ~seed:fault_seed
              ~link_faults:[ Sim.Faultplan.link_fault ~flaps "C2->C3" ]
              () )))
    [ 0.5; 0.25; 0.125 ]

(* Router resets: cores C1->C2 and C2->C3 reboot periodically, losing
   queue contents and all Corelite soft state; one point also wipes
   edge agents mid-run. The level is the reset period fraction. *)
let reset_jobs ?seed ?quick ~fault_seed () =
  let core_resets period_frac =
    let label = Printf.sprintf "reset_period=%g" period_frac in
    point_job ?seed ?quick ~label (fun ~network:_ ~duration ->
        let period = duration *. period_frac in
        let first = duration /. 4. in
        let count = int_of_float ((duration -. first) /. period) in
        let resets =
          List.concat_map
            (fun i ->
              let at = first +. (float_of_int i *. period) in
              [
                Sim.Faultplan.reset ~at (Sim.Faultplan.Core_router "C1->C2");
                Sim.Faultplan.reset
                  ~at:(at +. (period /. 2.))
                  (Sim.Faultplan.Core_router "C2->C3");
              ])
            (List.init count (fun i -> i))
        in
        (period_frac, Sim.Faultplan.make ~label ~seed:fault_seed ~resets ()))
  in
  let edge_resets =
    point_job ?seed ?quick ~label:"reset_edges" (fun ~network:_ ~duration ->
        let resets =
          List.map
            (fun flow -> Sim.Faultplan.reset ~at:(duration /. 2.) (Sim.Faultplan.Edge_agent flow))
            [ 1; 6; 9 ]
        in
        (0., Sim.Faultplan.make ~label:"reset_edges" ~seed:fault_seed ~resets ()))
  in
  List.map core_resets [ 0.5; 0.25 ] @ [ edge_resets ]

let jobs ?seed ?quick ?(fault_seed = default_fault_seed) () =
  [
    ("marker loss", marker_loss_jobs ?seed ?quick ~fault_seed ());
    ("bursty loss (Gilbert-Elliott)", burst_loss_jobs ?seed ?quick ~fault_seed ());
    ("link flaps", flap_jobs ?seed ?quick ~fault_seed ());
    ("router resets", reset_jobs ?seed ?quick ~fault_seed ());
  ]

let all ?domains ?seed ?quick ?fault_seed () =
  Pool.map_groups ?domains (jobs ?seed ?quick ?fault_seed ())

(* CSV render of the whole battery — the byte-level currency of the
   serial-vs-parallel and run-to-run determinism checks, and the body
   of results/chaos_battery.csv. *)
let csv_of_points points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "label,level,jain,goodput,core_drops,injected_drops,stripped_markers,lost_feedback,flaps,feedback\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%g,%.6f,%.3f,%d,%d,%d,%d,%d,%d\n" p.label p.level p.jain
           p.goodput p.core_drops p.injected_drops p.stripped_markers p.lost_feedback
           p.flaps p.feedback))
    points;
  Buffer.contents buf

let csv_of_groups groups =
  String.concat "" (List.map (fun (_, points) -> csv_of_points points) groups)

let pp_points ppf (name, points) =
  Format.fprintf ppf "@[<v>-- chaos: %s@," name;
  List.iter
    (fun p ->
      Format.fprintf ppf
        "   %-18s jain=%.4f goodput=%7.1f drops=%5d injected=%6d stripped=%6d \
         fb_lost=%5d flaps=%2d@,"
        p.label p.jain p.goodput p.core_drops p.injected_drops p.stripped_markers
        p.lost_feedback p.flaps)
    points;
  Format.fprintf ppf "@]"
