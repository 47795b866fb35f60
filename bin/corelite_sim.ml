(* Command-line driver for the Corelite simulator.

   Subcommands:
   - [figure <id>]  run one of the paper's figure scenarios (fig3..fig10),
     print the phase summaries and optionally write CSV series;
   - [sweep <name>] run a sensitivity/ablation sweep;
   - [run]          run an ad-hoc single-bottleneck scenario with chosen
     scheme, flow count, weights and duration. *)

open Cmdliner

(* Debug logging: -v surfaces the corelite.core / corelite.edge /
   csfq.core log sources (epoch decisions, feedback, alpha updates). *)
let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  let doc = "Enable debug logging of the core/edge control loops." in
  Term.(const setup_logs $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc))

let out_dir_arg =
  let doc = "Directory for CSV output (created if missing)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR" ~doc)

let seed_arg =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)
(* figure *)

let figure_ids =
  [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10" ]

let run_figure id out_dir seed =
  match
    List.find_opt (fun s -> s.Workload.Figures.id = id) (Workload.Figures.all ())
  with
  | None ->
    Printf.eprintf "unknown figure %s (expected one of: %s)\n" id
      (String.concat ", " figure_ids);
    exit 1
  | Some spec ->
    let result = Workload.Figures.run ~seed spec in
    let summary = Workload.Figures.summarize spec result in
    Workload.Figures.pp_summary Format.std_formatter summary;
    (match out_dir with
    | Some dir ->
      Workload.Csv.write_result ~dir ~prefix:id result;
      Printf.printf "series written to %s/%s_{rates,goodput,cumulative}.csv\n" dir id
    | None -> ())

let figure_cmd =
  let id =
    let doc = "Figure to reproduce: fig3 .. fig10." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let doc = "Reproduce one figure of the paper's evaluation." in
  Cmd.v
    (Cmd.info "figure" ~doc)
    Term.(const (fun () -> run_figure) $ verbose_arg $ id $ out_dir_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweeps =
  [
    ("core-epoch", Workload.Sweeps.core_epoch);
    ("qthresh", Workload.Sweeps.qthresh);
    ("k1", Workload.Sweeps.k1);
    ("latency", Workload.Sweeps.latency);
    ("k", Workload.Sweeps.k_correction);
    ("estimator", Workload.Sweeps.estimator);
    ("cache-size", Workload.Sweeps.cache_size);
    ("selector", Workload.Sweeps.selector);
    ("pw-cap", Workload.Sweeps.pw_cap);
    ("rav-gain", Workload.Sweeps.rav_gain);
    ("wav-gain", Workload.Sweeps.wav_gain);
    ("edge-epoch", Workload.Sweeps.edge_epoch);
    ("qdisc", Workload.Sweeps.qdisc);
    ("burst", Workload.Sweeps.burst);
  ]

let run_sweep name =
  match List.assoc_opt name sweeps with
  | None ->
    Printf.eprintf "unknown sweep %s (expected one of: %s)\n" name
      (String.concat ", " (List.map fst sweeps));
    exit 1
  | Some sweep ->
    Workload.Sweeps.pp_points Format.std_formatter (name, sweep ());
    Format.print_newline ()

let sweep_cmd =
  let sweep_name =
    let doc = "Sweep to run (see the sweep list in the man page)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SWEEP" ~doc)
  in
  let doc = "Run a sensitivity or ablation sweep." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const (fun () -> run_sweep) $ verbose_arg $ sweep_name)

(* ------------------------------------------------------------------ *)
(* scenario *)

(* Flows the schedule keeps running over all of [from, until]: started
   by [from] and not stopped before [until]. A flow stopped inside or
   before the window would enter the Jain index as a spurious low rate. *)
let running_throughout schedule ~from ~until =
  let by_time = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) schedule in
  let runs id =
    let at_from =
      List.fold_left
        (fun running (time, action) ->
          match action with
          | Workload.Runner.Start i when i = id && time <= from -> true
          | Workload.Runner.Stop i when i = id && time <= from -> false
          | Workload.Runner.Start _ | Workload.Runner.Stop _ -> running)
        false by_time
    in
    at_from
    && not
         (List.exists
            (fun (time, action) ->
              action = Workload.Runner.Stop id && time > from && time < until)
            by_time)
  in
  List.sort_uniq compare
    (List.filter_map
       (fun (_, (Workload.Runner.Start id | Workload.Runner.Stop id)) ->
         if runs id then Some id else None)
       schedule)

let run_scenario path out_dir =
  match Workload.Scenario_file.load path with
  | Error message ->
    Printf.eprintf "%s: %s\n" path message;
    exit 1
  | Ok scenario ->
    let result = Workload.Scenario_file.run scenario in
    let from = scenario.Workload.Scenario_file.duration *. 0.8 in
    let until = scenario.Workload.Scenario_file.duration in
    Printf.printf "flow  mean rate [%.0f,%.0f]\n" from until;
    List.iter
      (fun (id, rate) -> Printf.printf "%4d  %9.1f\n" id rate)
      (Workload.Runner.mean_rates result ~from ~until);
    let flows =
      running_throughout scenario.Workload.Scenario_file.schedule ~from ~until
    in
    Printf.printf "drops=%d jain=%.4f\n" result.Workload.Runner.core_drops
      (Workload.Runner.jain ~flows result ~from ~until);
    (match out_dir with
    | Some dir ->
      Workload.Csv.write_result ~dir ~prefix:"scenario" result;
      Printf.printf "series written to %s/scenario_*.csv\n" dir
    | None -> ())

let scenario_cmd =
  let path =
    let doc = "Scenario file (see the Workload.Scenario_file format)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let doc = "Run a scenario described in a text file." in
  Cmd.v (Cmd.info "scenario" ~doc)
    Term.(const (fun () -> run_scenario) $ verbose_arg $ path $ out_dir_arg)

(* ------------------------------------------------------------------ *)
(* run *)

(* Bad [run] input is rejected up front with a line that names the
   flag, as [figure] and [sweep] reject unknown names, instead of
   surfacing later as an uncaught library exception. *)
let reject flag fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" flag msg;
      exit 1)
    fmt

let parse_weights = function
  | "equal" -> fun _ -> 1.
  | "linear" -> float_of_int
  | "paper" -> Workload.Figures.weights_s42
  | s ->
    (* comma-separated list, e.g. "1,2,3"; flows past its end weigh 1 *)
    let weight w =
      match float_of_string_opt w with
      | Some x when Float.is_finite x && x > 0. -> x
      | Some _ | None -> reject "--weights" "%S is not a positive finite weight" w
    in
    let listed = List.map weight (String.split_on_char ',' s) in
    fun i -> Option.value ~default:1. (List.nth_opt listed (i - 1))

let run_adhoc scheme_name flows duration weights_spec seed out_dir =
  if flows < 1 then reject "--flows" "need at least one flow, got %d" flows;
  if not (Float.is_finite duration && duration > 0.) then
    reject "--duration" "must be positive and finite, got %g" duration;
  let weights = parse_weights weights_spec in
  let scheme =
    match scheme_name with
    | "corelite" -> Workload.Runner.Corelite Corelite.Params.default
    | "csfq" -> Workload.Runner.Csfq Csfq.Params.default
    | s ->
      Printf.eprintf "unknown scheme %s (corelite | csfq)\n" s;
      exit 1
  in
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights flows in
  let schedule = List.init flows (fun i -> (0., Workload.Runner.Start (i + 1))) in
  let result = Workload.Runner.run ~scheme ~network ~seed ~schedule ~duration () in
  let from = duration *. 0.8 and until = duration in
  let reference =
    Workload.Network.expected_rates network
      ~active:(List.init flows (fun i -> i + 1))
  in
  Printf.printf "flow  weight  measured  max-min\n";
  List.iter
    (fun flow ->
      let id = flow.Net.Flow.id in
      Printf.printf "%4d  %6.1f  %8.1f  %7.1f\n" id flow.Net.Flow.weight
        (Workload.Runner.mean_rate result ~flow:id ~from ~until)
        (List.assoc id reference))
    network.Workload.Network.flows;
  Printf.printf "drops=%d feedback=%d jain=%.4f\n" result.Workload.Runner.core_drops
    result.Workload.Runner.feedback_markers
    (Workload.Runner.jain result ~from ~until);
  match out_dir with
  | Some dir ->
    Workload.Csv.write_result ~dir ~prefix:"run" result;
    Printf.printf "series written to %s/run_*.csv\n" dir
  | None -> ()

let run_cmd =
  let scheme =
    let doc = "Scheme: corelite or csfq." in
    Arg.(value & opt string "corelite" & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let flows =
    let doc = "Number of flows sharing the bottleneck." in
    Arg.(value & opt int 4 & info [ "flows" ] ~docv:"N" ~doc)
  in
  let duration =
    let doc = "Simulated duration in seconds." in
    Arg.(value & opt float 120. & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let weights =
    let doc =
      "Weight assignment: equal, linear (flow i has weight i), paper \
       (ceil(i/2)), or a comma-separated list."
    in
    Arg.(value & opt string "equal" & info [ "weights" ] ~docv:"SPEC" ~doc)
  in
  let doc = "Run an ad-hoc single-bottleneck scenario." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const (fun () -> run_adhoc)
      $ verbose_arg $ scheme $ flows $ duration $ weights $ seed_arg $ out_dir_arg)

let () =
  let doc = "Corelite: per-flow weighted rate fairness in a core stateless network" in
  let info = Cmd.info "corelite-sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ figure_cmd; sweep_cmd; run_cmd; scenario_cmd ]))
