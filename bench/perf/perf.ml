(* The simulator's benchmark: one executable, four workloads, two modes.

   Untraced (--trace 0) measures the end-to-end metrics. A workload
   first builds its set-up [setups] times on its own, then runs
   floor(--seconds / rep_s) repetitions (at least one), each after a
   full major GC. Every metric is the median over repetitions (set-up:
   over the set-up samples). Fixed counts make every run of a workload
   measure the same work. Times are in reference-host seconds: host
   speed is probed between the steps of every repetition (Pace), and
   the uncorrected wall time is printed beside them.

   Traced (--trace 1) runs the workload once untraced and once with
   Sim.Trace armed, live-heap readings between set-up phases and
   per-slice sampling, prints the per-layer metrics and writes every
   span as JSON Lines under --out.

   Both modes check outputs and count a repetition as failed when a
   check fails: repetitions (and the traced run) must agree exactly on
   events, hops, sent, delivered, drops and the per-flow CSV, every flow
   must be retired by the drain, and at seed 42 the paper-figures
   payloads must equal the committed results/fig*_*.csv.

   Without --workload every workload runs in its own child process (so
   VmHWM is that workload's), untraced then traced. --smoke runs tiny
   versions in-process, and --reference PATH records two full sets as
   medians and quartiles. The last stdout line is always one JSON
   object: correct, attempted, failed, metrics. *)

open Compose

let figures = Workload.Figures.[ fig3; fig5; fig6; fig7; fig8; fig9; fig10 ]

let scale ?(end_fraction = 0.) ?(reference = false) ?topology_seed graph scheme n_flows ~duration
    ~measure_from =
  Scale { graph; scheme; n_flows; duration; measure_from; end_fraction; reference; topology_seed }

let workloads =
  let w name ~rep_s ~setups kind = { name; label = "perf/" ^ name; kind; rep_s; setups } in
  [
    w "paper-figures" ~rep_s:2.9 ~setups:100 (Figures figures);
    w "fattree-k8-1e4" ~rep_s:6.2 ~setups:5
      (scale ~reference:true (Workload.Scale.Fattree 8) Workload.Scale.Corelite 10_000
         ~duration:10. ~measure_from:5.);
    w "fattree-k16-1e5" ~rep_s:34. ~setups:3
      (scale (Workload.Scale.Fattree 16) Workload.Scale.Corelite 100_000 ~duration:5.
         ~measure_from:4.);
    w "asgraph-n512-1e4-csfq-churn" ~rep_s:4. ~setups:5
      (* One fixed graph and flow population: the seed varies only the
         deployment's random streams. A population drawn per seed moves
         the drop rate by 8% and the work by 15% from seed to seed. *)
      (scale ~end_fraction:0.2 ~topology_seed:42
         (Workload.Scale.As_graph { nodes = 512; m = 2 })
         Workload.Scale.Csfq 10_000 ~duration:10. ~measure_from:5.);
  ]

(* The fat-tree smoke is the test/golden/scale_fattree_k4.csv scenario
   (same label, size and duration), so dune can diff its CSV. *)
let smoke_workloads =
  [
    {
      name = "smoke-fig5";
      label = "perf/smoke-fig5";
      kind = Figures [ Workload.Figures.fig5 ];
      rep_s = 1.;
      setups = 3;
    };
    {
      name = "smoke-fattree-k4";
      label = "golden/fattree-k4";
      kind =
        scale ~reference:true (Workload.Scale.Fattree 4) Workload.Scale.Corelite 64 ~duration:5.
          ~measure_from:2.5;
      rep_s = 1.;
      setups = 3;
    };
    {
      name = "smoke-asgraph-n32-csfq-churn";
      label = "perf/smoke-asgraph-n32-csfq-churn";
      kind =
        scale ~end_fraction:0.2
          (Workload.Scale.As_graph { nodes = 32; m = 2 })
          Workload.Scale.Csfq 300 ~duration:4. ~measure_from:2.;
      rep_s = 1.;
      setups = 3;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(n=4), so the numbers here match the ones a
   reader recomputes from the samples. *)
let quartiles xs =
  match List.sort Float.compare xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let q i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = m - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    let mid = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2. in
    (q 1, mid, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* ------------------------------------------------------------------ *)
(* Host and provenance *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.) with
        | mb -> mb
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
      0. (String.split_on_char '\n' status)

let git_rev () =
  let read p = try Some (String.trim (In_channel.with_open_bin p In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" name) with
    | Some rev -> rev
    | None ->
      Option.value ~default:"unknown"
        (Option.bind (read ".git/packed-refs") (fun packed ->
             List.find_map
               (fun line ->
                 match String.split_on_char ' ' line with
                 | [ rev; n ] when String.equal n name -> Some rev
                 | _ -> None)
               (String.split_on_char '\n' packed))))
  | Some rev -> rev

let provenance ~mode ~seed ~seconds =
  Printf.sprintf "nproc=%d ocaml=%s rev=%s mode=%s seed=%d seconds=%g"
    (Workload.Pool.default_domains ())
    Sys.ocaml_version (git_rev ()) mode seed seconds

(* ------------------------------------------------------------------ *)
(* One measured invocation *)

type outcome = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  samples : (string * float list) list;
  attempted : int;
  failed : int;
  notes : string list;  (** one line per failed check *)
}

let e2e_units =
  [
    ("wall_s", "s"); ("setup_s", "s"); ("hops_per_s", "packet-hops/s"); ("peak_rss_mb", "MB");
    ("fairness_jain", "1"); ("drop_rate", "fraction");
  ]

let fl = float_of_int

let ratio a b = if b > 0. then a /. b else 0.

let is_figures w = match w.kind with Figures _ -> true | Scale _ -> false

(* Time inside the simulator proper: the run_until slices, or the
   Runner.run calls of the figure workload (Runner owns its run_until). *)
let run_seconds ?clock spans (rep : Span.span) w =
  Span.seconds ?clock ~under:rep.Span.id spans
    (if is_figures w then "workload.runner" else "sim.run_until")

let check_counts w c =
  let jain = ratio c.jain_sum (fl c.jain_n) in
  if c.hops <= 0 || c.sent <= 0 then fail c "no packets moved";
  if c.delivered + c.drops > c.sent then
    fail c (Printf.sprintf "delivered %d + dropped %d exceed sent %d" c.delivered c.drops c.sent);
  if not (jain > 0. && jain <= 1. +. 1e-9) then fail c (Printf.sprintf "Jain index %g outside (0, 1]" jain);
  match w.kind with
  | Scale { reference = true; _ } when not (c.jain_ref > 0. && c.jain_ref <= 1. +. 1e-9) ->
    fail c (Printf.sprintf "reference Jain %g outside (0, 1]" c.jain_ref)
  | Scale _ | Figures _ -> ()

let run_rep ~spans ~pace ~traced ~seed ~golden_dir w =
  Gc.full_major ();
  let c = counts () in
  let rep = Span.enter spans (if traced then "rep-traced" else "rep") in
  Compose.rep ~spans ~traced ~tick:(fun () -> Pace.tick pace) ~setup_only:false ~seed w c;
  Span.leave spans rep;
  Pace.tick pace;
  check_counts w c;
  Option.iter (fun dir -> check_goldens c ~dir) golden_dir;
  (rep, c)

let write_payloads ~dir c =
  List.iter
    (fun (name, bytes) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc bytes))
    c.payloads

let untraced ~seed ~seconds ~golden_dir ~payload_dir w =
  let spans = Span.create () in
  let pace = Pace.create ~probing:true in
  let clock = Pace.seconds pace in
  let root = Span.enter spans w.name in
  (* Set-up samples come first: a heap that repetitions have already
     grown and fragmented makes later set-ups slower by a varying
     amount. The first sample also pays for growing the heap; the
     median skips it. *)
  let setups =
    List.init w.setups (fun _ ->
        Gc.full_major ();
        let s = Span.enter spans "setup-only" in
        Compose.rep ~spans ~traced:false ~tick:(fun () -> Pace.tick pace) ~setup_only:true ~seed w
          (counts ());
        Span.leave spans s;
        Span.seconds ~clock ~under:s.Span.id spans "setup")
  in
  let n_reps = max 1 (int_of_float (seconds /. w.rep_s)) in
  let ((_, first) as first_rep) = run_rep ~spans ~pace ~traced:false ~seed ~golden_dir w in
  (* Later repetitions run on a heap their predecessors fragmented, and
     raise the high-water mark by an amount that varies from run to run;
     one set-up plus one run is what a user's process holds. *)
  let peak_rss = peak_rss_mb () in
  let reps =
    first_rep
    :: List.init (n_reps - 1) (fun _ -> run_rep ~spans ~pace ~traced:false ~seed ~golden_dir w)
  in
  Span.leave spans root;
  Option.iter (fun dir -> write_payloads ~dir first) payload_dir;
  List.iter
    (fun (_, c) ->
      if not (String.equal (fingerprint c) (fingerprint first)) then
        fail c ("repetition differs from the first: " ^ fingerprint c))
    reps;
  let per_rep f = List.map (fun (rep, c) -> f rep c) reps in
  let samples =
    [
      ("wall_s", per_rep (fun rep _ -> clock rep.Span.start rep.Span.stop));
      ("setup_s", setups);
      ("hops_per_s", per_rep (fun rep c -> ratio (fl c.hops) (run_seconds ~clock spans rep w)));
      ("peak_rss_mb", [ peak_rss ]);
      ("fairness_jain", per_rep (fun _ c -> ratio c.jain_sum (fl c.jain_n)));
      ("drop_rate", per_rep (fun _ c -> ratio (fl c.drops) (fl c.sent)));
      (* Not metrics: what the host did. Wall seconds as measured, and
         the median probe in milliseconds (reference: 1000 *
         Pace.reference). *)
      ("measured_wall_s", per_rep (fun rep _ -> Span.duration rep));
      ("probe_ms", per_rep (fun rep _ -> 1000. *. Pace.median_probe pace rep.Span.start rep.Span.stop));
    ]
  in
  let metrics = List.map (fun (name, unit) -> (name, unit, median (List.assoc name samples))) e2e_units in
  (* Timings, rates and RSS are positive on any run that did work;
     fairness and drop rate are checked per repetition. *)
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v && (v > 0. || name = "drop_rate" || name = "fairness_jain")) then
        fail first (Printf.sprintf "%s = %g" name v))
    metrics;
  let failed = List.filter (fun (_, c) -> c.failures <> []) reps in
  {
    metrics;
    samples;
    attempted = List.length reps;
    failed = List.length failed;
    notes = List.concat_map (fun (_, c) -> List.rev c.failures) failed;
  }

let layer_units =
  [
    ("topo.build_s", "s"); ("topo.fib_s", "s"); ("topo.flows_s", "s"); ("net.build_s", "s");
    ("net.bytes_per_flow", "B"); ("deployment.build_s", "s"); ("deployment.add_flow_us", "us/flow");
    ("deployment.bytes_per_flow", "B"); ("deployment.end_flow_us", "us/flow"); ("sim.run_s", "s");
    ("sim.events", "count"); ("sim.events_per_s", "1/s"); ("sim.events_per_hop", "ratio");
    ("sim.pending_mean", "events"); ("sim.pending_max", "events");
    ("sim.event_queue.isolated_ns", "ns"); ("gc.minor_words_per_hop", "words/hop");
    ("gc.promoted_words_per_hop", "words/hop"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB"); ("net.hops", "count");
    ("net.steady_hops_per_s", "1/s"); ("net.queue_mean", "pkts"); ("net.delivered_per_sent", "ratio");
    ("net.drops.access", "count"); ("net.drops.edge_agg", "count"); ("net.drops.agg_core", "count");
    ("net.drops.router", "count"); ("corelite.markers_seen", "count");
    ("corelite.feedback_sent", "count"); ("corelite.feedback_received", "count");
    ("corelite.feedback_per_marker", "ratio"); ("corelite.congested_epoch_share", "ratio");
    ("csfq.early_drops", "count"); ("csfq.losses", "count");
  ]
  @ List.map (fun k -> ("trace." ^ Sim.Trace.kind_name k, "count")) Sim.Trace.all_kinds
  @ [
      ("trace.overhead", "ratio"); ("fairness.jain_s", "s"); ("fairness.maxmin_s", "s");
      ("fairness.jain_vs_reference", "1"); ("workload.runner_s", "s"); ("workload.summarize_s", "s");
    ]

let trace_count c kind =
  let rec find i = function
    | k :: _ when k = kind -> c.trace.(i)
    | _ :: rest -> find (i + 1) rest
    | [] -> 0
  in
  find 0 Sim.Trace.all_kinds

let layer_values ~spans ~(rep : Span.span) ~untraced_run_s ~queue_ns w c =
  let sec name = Span.seconds ~under:rep.Span.id spans name in
  let run_s = run_seconds spans rep w in
  let hops = fl c.hops and flows = fl c.flows in
  let samples = fl (max 1 c.samples) in
  let per_flow_bytes words = ratio (8. *. fl words) flows in
  [
    ("topo.build_s", sec "topo.build"); ("topo.fib_s", sec "topo.fib");
    ("topo.flows_s", sec "topo.flows"); ("net.build_s", sec "net.build");
    ("net.bytes_per_flow", per_flow_bytes c.net_words); ("deployment.build_s", sec "deployment.build");
    ("deployment.add_flow_us", 1e6 *. ratio (sec "deployment.add_flow") flows);
    ("deployment.bytes_per_flow", per_flow_bytes c.deployment_words);
    ("deployment.end_flow_us", 1e6 *. ratio (sec "deployment.end_flow") (fl c.end_flows));
    ("sim.run_s", run_s); ("sim.events", fl c.events); ("sim.events_per_s", ratio (fl c.events) run_s);
    ("sim.events_per_hop", ratio (fl c.events) hops); ("sim.pending_mean", c.pending_sum /. samples);
    ("sim.pending_max", fl c.pending_max); ("sim.event_queue.isolated_ns", queue_ns);
    ("gc.minor_words_per_hop", ratio c.minor_words hops);
    ("gc.promoted_words_per_hop", ratio c.promoted_words hops);
    ("gc.minor_collections", fl c.minor_collections); ("gc.major_collections", fl c.major_collections);
    ("gc.top_heap_mb", fl (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1048576.);
    ("net.hops", hops); ("net.steady_hops_per_s", ratio (fl c.steady_hops) c.steady_s);
    ("net.queue_mean", c.queue_sum /. samples);
    ("net.delivered_per_sent", ratio (fl c.delivered) (fl c.sent));
    ("net.drops.access", fl c.tier_drops.(0)); ("net.drops.edge_agg", fl c.tier_drops.(1));
    ("net.drops.agg_core", fl c.tier_drops.(2)); ("net.drops.router", fl c.tier_drops.(3));
    ("corelite.markers_seen", fl c.markers_seen); ("corelite.feedback_sent", fl c.feedback_sent);
    ("corelite.feedback_received", fl c.feedback_received);
    ("corelite.feedback_per_marker", ratio (fl c.feedback_sent) (fl c.markers_seen));
    ( "corelite.congested_epoch_share",
      ratio (fl c.congested_epochs) (fl (trace_count c Sim.Trace.Epoch)) );
    ("csfq.early_drops", fl c.early_drops); ("csfq.losses", fl c.losses);
  ]
  @ List.map (fun k -> ("trace." ^ Sim.Trace.kind_name k, fl (trace_count c k))) Sim.Trace.all_kinds
  @ [
      ("trace.overhead", ratio run_s untraced_run_s); ("fairness.jain_s", sec "fairness.jain");
      ("fairness.maxmin_s", sec "fairness.maxmin"); ("fairness.jain_vs_reference", c.jain_ref);
      ("workload.runner_s", sec "workload.runner"); ("workload.summarize_s", sec "workload.summarize");
    ]

let traced ~seed ~golden_dir ~out_dir w =
  let spans = Span.create () in
  let root = Span.enter spans w.name in
  let pace = Pace.create ~probing:false in
  let plain, pc = run_rep ~spans ~pace ~traced:false ~seed ~golden_dir w in
  let rep, c = run_rep ~spans ~pace ~traced:true ~seed ~golden_dir w in
  Span.leave spans root;
  if not (String.equal (fingerprint c) (fingerprint pc)) then
    fail c
      (Printf.sprintf "traced run differs from untraced: %s vs %s" (fingerprint c) (fingerprint pc));
  (* Child spans must account for set-up; only spans long enough for a
     stray minor collection not to dominate are held to it. *)
  let coverage = Span.min_child_coverage spans "setup" ~longer_than:0.01 in
  if coverage < 0.95 then
    fail c (Printf.sprintf "setup children cover only %.1f%% of a setup span" (100. *. coverage));
  let depth = int_of_float (Float.round (c.pending_sum /. fl (max 1 c.samples))) in
  let queue_ns = Compose.isolated_queue_ns ~depth:(max 1 depth) ~seed in
  let values =
    layer_values ~spans ~rep ~untraced_run_s:(run_seconds spans plain w) ~queue_ns w c
  in
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Span.to_jsonl spans));
  Printf.printf "# spans %s\n" path;
  let failed = List.filter (fun c -> c.failures <> []) [ pc; c ] in
  {
    metrics = List.map (fun (name, unit) -> (name, unit, List.assoc name values)) layer_units;
    samples = List.map (fun (name, v) -> (name, [ v ])) values;
    attempted = 2;
    failed = List.length failed;
    notes = List.concat_map (fun c -> List.rev c.failures) failed;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_line ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics))

(* Human-readable lines, which the parent process also parses back. *)
let print_outcome ~workload ~mode o =
  List.iter (fun n -> Printf.printf "check %s %s FAILED: %s\n" workload mode n) o.notes;
  List.iter
    (fun (name, unit, v) ->
      let n, q1, q3 =
        match List.assoc_opt name o.samples with
        | Some xs ->
          let q1, _, q3 = quartiles xs in
          (List.length xs, q1, q3)
        | None -> (1, v, v)
      in
      Printf.printf "metric %s %s %s %s n=%d q1=%s q3=%s\n" workload name (json_number v) unit n
        (json_number q1) (json_number q3))
    o.metrics;
  List.iter
    (fun (name, xs) ->
      Printf.printf "sample %s %s %s\n" workload name (String.concat " " (List.map json_number xs)))
    o.samples

let measure ~seed ~seconds ~trace ~out_dir ~results_dir ~payloads w =
  let golden_dir = if seed = 42 && is_figures w then Some results_dir else None in
  let mode = if trace then "traced" else "untraced" in
  let o =
    if trace then traced ~seed ~golden_dir ~out_dir w
    else
      untraced ~seed ~seconds ~golden_dir ~payload_dir:(if payloads then Some out_dir else None) w
  in
  Printf.printf "# perf workload=%s reps=%d %s\n" w.name o.attempted
    (provenance ~mode ~seed ~seconds);
  print_outcome ~workload:w.name ~mode o;
  o

(* ------------------------------------------------------------------ *)
(* Child processes (one per workload and mode) *)

let run_child ~seed ~seconds ~trace ~out_dir ~results_dir w =
  let args =
    [|
      Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0"); "--out"; out_dir;
      "--results"; results_dir;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let metrics = ref [] and samples = ref [] and totals = ref (1, 1) in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       match String.split_on_char ' ' line with
       | "metric" :: _ :: name :: v :: unit :: _ -> metrics := (name, unit, float_of_string v) :: !metrics
       | "sample" :: _ :: name :: vs -> samples := (name, List.map float_of_string vs) :: !samples
       | _ -> (
         try
           Scanf.sscanf line "{\"correct\": %_s \"attempted\": %d, \"failed\": %d," (fun a f ->
               totals := (a, f))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> ())
     done
   with End_of_file -> ());
  let attempted, failed = !totals in
  let failed = if Unix.close_process_in ic = Unix.WEXITED 0 then failed else max 1 failed in
  { metrics = List.rev !metrics; samples = List.rev !samples; attempted; failed; notes = [] }

(* Per workload and metric: median and quartiles over every sample of
   every set (repetitions for end-to-end metrics, one value per traced
   run for per-layer ones). *)
let reference_json ~path ~seed ~seconds sets =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "{\n  \"provenance\": \"%s\",\n  \"sets\": %d,\n  \"workloads\": {\n"
    (provenance ~mode:"reference" ~seed ~seconds)
    (List.length sets);
  let sep i l = if i = List.length l - 1 then "" else "," in
  List.iteri
    (fun wi w ->
      let runs = List.concat_map (List.filter_map (fun (n, o) -> if n = w.name then Some o else None)) sets in
      let names = List.concat_map (fun (n, o) -> if n = w.name then o.metrics else []) (List.hd sets) in
      Printf.bprintf buf "    \"%s\": {\n" w.name;
      List.iteri
        (fun mi (name, unit, _) ->
          let xs = List.concat_map (fun o -> Option.value ~default:[] (List.assoc_opt name o.samples)) runs in
          let q1, m, q3 = quartiles xs in
          Printf.bprintf buf
            "      \"%s\": {\"unit\": \"%s\", \"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d}%s\n"
            name unit (json_number m) (json_number q1) (json_number q3) (List.length xs) (sep mi names))
        names;
      Printf.bprintf buf "    }%s\n" (sep wi workloads))
    workloads;
  Buffer.add_string buf "  }\n}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)

(* The closing JSON line; metric names carry a "workload:" prefix when
   the invocation measured more than one (workload, mode). *)
let finish ~all runs =
  let prefix = List.length runs > 1 in
  let total f = List.fold_left (fun acc (_, o) -> acc + f o) 0 all in
  let failed = total (fun o -> o.failed) in
  print_endline
    (json_line ~attempted:(total (fun o -> o.attempted)) ~failed
       (List.concat_map
          (fun (name, o) ->
            List.map (fun (n, u, v) -> ((if prefix then name ^ ":" ^ n else n), u, v)) o.metrics)
          runs));
  exit (if failed = 0 then 0 else 1)

let () =
  let workload = ref "all" and seed = ref 42 and seconds = ref 16. and trace = ref (-1) in
  let out_dir = ref "_perf" and results_dir = ref "results" and smoke = ref false in
  let reference = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one workload, or all (default)");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measuring budget per workload (default 16)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics; default both");
      ("--out", Arg.Set_string out_dir, "DIR  span files and smoke payloads (default _perf)");
      ("--results", Arg.Set_string results_dir, "DIR  committed figure CSVs (default results)");
      ("--smoke", Arg.Set smoke, "  tiny workloads, both modes, in-process (dune runtest)");
      ("--reference", Arg.Set_string reference, "PATH  run two full sets, write medians/quartiles");
    ]
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke] \
     [--reference PATH]";
  let modes =
    match !trace with
    | 0 -> [ false ]
    | 1 -> [ true ]
    | -1 -> [ false; true ]
    | _ ->
      prerr_endline "perf: --trace takes 0 or 1";
      exit 2
  in
  (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
  let in_process ws =
    let runs =
      List.concat_map
        (fun w ->
          List.map
            (fun trace ->
              ( w.name,
                measure ~seed:!seed ~seconds:!seconds ~trace ~out_dir:!out_dir
                  ~results_dir:!results_dir ~payloads:!smoke w ))
            modes)
        ws
    in
    finish ~all:runs runs
  in
  if !smoke then begin
    seconds := 0.;
    in_process smoke_workloads
  end
  else if !workload <> "all" then
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> in_process [ w ]
    | None ->
      prerr_endline
        ("perf: unknown workload " ^ !workload ^ "; one of: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  else begin
    let set () =
      List.concat_map
        (fun w ->
          List.map
            (fun trace ->
              ( w.name,
                run_child ~seed:!seed ~seconds:!seconds ~trace ~out_dir:!out_dir
                  ~results_dir:!results_dir w ))
            modes)
        workloads
    in
    let sets = List.init (if !reference = "" then 1 else 2) (fun _ -> set ()) in
    if !reference <> "" then reference_json ~path:!reference ~seed:!seed ~seconds:!seconds sets;
    finish ~all:(List.concat sets) (List.hd sets)
  end
