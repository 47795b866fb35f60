(* The gated batteries outside the benchmark proper (bench/perf), one
   subcommand each. Run from the repository root:

     dune exec bench/bench.exe -- chaos [-j N] [--quick] [--seed N]
                                        [--fault-seed N] [--out PATH]
     dune exec bench/bench.exe -- churn [-j N] [--quick] [--seed N]
                                        [--fault-seed N] [--out PATH]
     dune exec bench/bench.exe -- scale [--quick] [--huge] [--seed N]
                                        [--out PATH] [--min-events-per-s N]
                                        [--max-rss-mb N]

   Each writes results/BENCH_<subcommand>.json (or --out) and exits 1
   when a gate fails:

   - chaos: Workload.Chaos under deterministic fault injection. At 10%
     uniform marker loss the weighted Jain index keeps at least 90% of
     its loss-free value.
   - churn: Workload.Churn. Corelite's mean windowed Jain under churn,
     under the CLEF-style adversary and under churn with faults keeps
     at least 85% of its static value, and no flow leaves edge soft
     state behind after the drain.
   - chaos and churn run their battery on one domain and on -j N
     domains; the two CSV payloads must be byte-identical. Every draw
     descends from (seed, label) or (fault seed, label), so a rerun
     with the same flags replays the battery exactly.
   - scale: the generated-topology ladder, 10^3 to 10^5 flows (10^6
     with --huge). Every rung must simulate at least
     --min-events-per-s events/s, and the final peak RSS must stay
     under --max-rss-mb.

   The chaos and churn reports hold no wall-clock time and no host
   facts, so two runs with the same flags write byte-identical files
   (CI compares them with cmp). The scale report names its host (nproc,
   OCaml version) and the git rev it ran at. *)

let quick = ref false

let seed = ref 42

let out = ref ""

let domains = ref (Workload.Pool.default_domains ())

let fault_seed = ref Workload.Chaos.default_fault_seed

(* ------------------------------------------------------------------ *)
(* Hand-rolled JSON (no JSON dependency in the image). *)

let str s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* A JSON array with one item per line, indented two spaces past
   [indent], which is where the closing bracket goes. *)
let lines ~indent items =
  let pad = String.make indent ' ' in
  Printf.sprintf "[\n%s\n%s]"
    (String.concat ",\n" (List.map (fun item -> pad ^ "  " ^ item) items))
    pad

let groups row named =
  lines ~indent:2
    (List.map
       (fun (name, points) ->
         Printf.sprintf "{\"name\": %s, \"points\": %s}" (str name)
           (lines ~indent:4 (List.map row points)))
       named)

(* Every report opens with the same header: which subcommand wrote it,
   in which mode, from which seed. *)
let write_report ~sub ~mode fields =
  let header =
    [
      ("harness", str ("bench/bench.ml " ^ sub));
      ("mode", str mode);
      ("seed", string_of_int !seed);
    ]
  in
  Out_channel.with_open_text !out (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           (List.map
              (fun (k, v) -> Printf.sprintf "  %s: %s" (str k) v)
              (header @ fields))))

(* Report every failed gate, then exit 1 if there was one. *)
let gates ~sub checks =
  let failed = List.filter (fun (ok, _) -> not ok) checks in
  List.iter (fun (_, msg) -> Printf.eprintf "bench %s: %s\n" sub msg) failed;
  if failed <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* chaos and churn *)

(* Runs the battery on one domain and on [!domains]; the first run is
   the one reported, the second must match it byte for byte. *)
let battery ~run ~csv ~pp =
  let serial = run ~domains:1 in
  let deterministic = String.equal (csv serial) (csv (run ~domains:!domains)) in
  List.iter (fun g -> Format.printf "%a@." pp g) serial;
  (serial, deterministic)

let report_footer deterministic =
  Printf.printf "deterministic(serial = %d domains) %b\nreport: %s\n" !domains
    deterministic !out

let mode () = if !quick then "quick" else "full"

let chaos_row (pt : Workload.Chaos.point) =
  Printf.sprintf
    "{\"label\": %s, \"level\": %g, \"jain\": %.6f, \"goodput\": %.3f, \
     \"core_drops\": %d, \"injected_drops\": %d, \"stripped_markers\": %d, \
     \"lost_feedback\": %d, \"flaps\": %d, \"feedback\": %d}"
    (str pt.label) pt.level pt.jain pt.goodput pt.core_drops pt.injected_drops
    pt.stripped_markers pt.lost_feedback pt.flaps pt.feedback

let marker_loss_jain named level =
  Option.value ~default:nan
    (Option.bind (List.assoc_opt "marker loss" named)
       (List.find_map (fun (pt : Workload.Chaos.point) ->
            if Sim.Floats.near ~tolerance:1e-9 pt.level level then Some pt.jain
            else None)))

let chaos () =
  let serial, deterministic =
    battery
      ~run:(fun ~domains ->
        Workload.Chaos.all ~domains ~seed:!seed ~quick:!quick ~fault_seed:!fault_seed ())
      ~csv:Workload.Chaos.csv_of_groups ~pp:Workload.Chaos.pp_points
  in
  let jain_free = marker_loss_jain serial 0. in
  let jain_lossy = marker_loss_jain serial 0.1 in
  let degradation_ok =
    Float.is_finite jain_free && Float.is_finite jain_lossy
    && jain_lossy >= 0.9 *. jain_free
  in
  write_report ~sub:"chaos" ~mode:(mode ())
    [
      ("fault_seed", string_of_int !fault_seed);
      ("groups", groups chaos_row serial);
      ("jain_loss_free", Printf.sprintf "%.6f" jain_free);
      ("jain_at_10pct_marker_loss", Printf.sprintf "%.6f" jain_lossy);
      ("degradation_ok", string_of_bool degradation_ok);
      ("deterministic", string_of_bool deterministic);
    ];
  Printf.printf "jain loss-free %.4f  at 10%% marker loss %.4f (ratio %.3f, gate 0.9)\n"
    jain_free jain_lossy
    (jain_lossy /. Float.max 1e-9 jain_free);
  report_footer deterministic;
  gates ~sub:"chaos"
    [
      (deterministic, "PARALLEL RUN DIVERGED FROM SERIAL");
      (degradation_ok, "FAIRNESS DEGRADED BEYOND THE 0.9 GATE");
    ]

let churn_gate_ratio = 0.85

let churn_row (pt : Workload.Churn.point) =
  Printf.sprintf
    "{\"label\": %s, \"variant\": %s, \"arrivals\": %d, \"completed\": %d, \
     \"expired\": %d, \"leaked\": %d, \"windowed_jain\": %.6f, \
     \"goodput\": %.3f, \"adversary_share\": %.6f, \"core_drops\": %d, \
     \"injected_drops\": %d}"
    (str pt.label) (str pt.variant) pt.arrivals pt.completed pt.expired pt.leaked
    pt.windowed_jain pt.goodput pt.adversary_share pt.core_drops pt.injected_drops

let churn () =
  let serial, deterministic =
    battery
      ~run:(fun ~domains ->
        Workload.Churn.all ~domains ~seed:!seed ~quick:!quick ~fault_seed:!fault_seed ())
      ~csv:Workload.Churn.csv_of_groups ~pp:Workload.Churn.pp_points
  in
  let corelite =
    match List.assoc_opt "corelite" serial with
    | Some points -> points
    | None -> failwith "bench churn: no corelite group in the battery"
  in
  let verdicts = Workload.Churn.gate ~ratio:churn_gate_ratio corelite in
  let gates_ok = List.for_all (fun (_, _, _, pass) -> pass) verdicts in
  let leaked =
    List.fold_left
      (fun acc (pt : Workload.Churn.point) -> acc + pt.leaked)
      0 (List.concat_map snd serial)
  in
  write_report ~sub:"churn" ~mode:(mode ())
    [
      ("fault_seed", string_of_int !fault_seed);
      ("gate_ratio", Printf.sprintf "%.2f" churn_gate_ratio);
      ("groups", groups churn_row serial);
      ( "corelite_gates",
        lines ~indent:2
          (List.map
             (fun (variant, jain, baseline, pass) ->
               Printf.sprintf
                 "{\"variant\": %s, \"windowed_jain\": %.6f, \
                  \"static_baseline\": %.6f, \"pass\": %b}"
                 (str variant) jain baseline pass)
             verdicts) );
      ("leaked_flow_state", string_of_int leaked);
      ("gates_ok", string_of_bool gates_ok);
      ("deterministic", string_of_bool deterministic);
    ];
  List.iter
    (fun (variant, jain, baseline, pass) ->
      Printf.printf
        "corelite %-12s windowed jain %.4f vs static %.4f (ratio %.3f, gate %.2f) %s\n"
        variant jain baseline
        (jain /. Float.max 1e-9 baseline)
        churn_gate_ratio
        (if pass then "OK" else "FAIL"))
    verdicts;
  Printf.printf "leaked flow state %d\n" leaked;
  report_footer deterministic;
  gates ~sub:"churn"
    [
      (deterministic, "PARALLEL RUN DIVERGED FROM SERIAL");
      (leaked = 0, "FLOW TABLE LEAKED SOFT STATE AFTER THE DRAIN");
      (gates_ok, "WINDOWED FAIRNESS BELOW THE 0.85 GATE");
    ]

(* ------------------------------------------------------------------ *)
(* scale

   Each rung regenerates its graph, FIB and flow population from
   (seed, label) and runs Corelite through Workload.Scale's streaming
   harness. jain_weighted stays the printed headline until a
   convergence test says when Jain against the water-filling reference
   (jain_vs_reference) is meaningful (ROADMAP). A rung's wall_s
   includes the reference solve: 10 ms of 3.7 s at 10^4 flows and
   0.15 s of 65 s at 10^5 on a 2-vCPU host. Peak RSS (VmHWM) is a
   high-water mark, so the ladder climbs in flow order and each rung
   reports the peak after it completed; the ratio between successive
   rungs staying far below the 10x flow ratio is the sub-linearity
   witness. The CI gates hold on shared runners because events and RSS
   follow the simulation's structure, not machine noise. *)

let huge = ref false

let min_events_per_s = ref 0.

let max_rss_mb = ref infinity

let now () = Unix.gettimeofday () (* lint: determinism-ok *)

(* Peak resident set (VmHWM) in MB from /proc/self/status; 0 when the
   proc filesystem is unavailable (non-Linux dev machines). *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              Some (float_of_int kb /. 1024.))
        else None)
      (String.split_on_char '\n' status)
    |> Option.value ~default:0.

(* The commit the numbers came from: .git/HEAD, resolved through a loose
   or packed ref; "unknown" outside a git checkout. *)
let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
    with Sys_error _ -> None
  in
  let packed name =
    Option.bind (read (Filename.concat ".git" "packed-refs")) (fun refs ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ rev; n ] when String.equal n name -> Some rev
            | _ -> None)
          (String.split_on_char '\n' refs))
  in
  match read (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head ->
    let name = String.sub head 5 (String.length head - 5) in
    (match read (Filename.concat ".git" name) with
    | Some rev -> rev
    | None -> Option.value ~default:"unknown" (packed name))
  | Some rev -> rev

type rung = {
  id : string;
  graph : Workload.Scale.graph_spec;
  flows : int;
  duration : float;
}

let ladder () =
  let fattree id k flows duration =
    { id; graph = Workload.Scale.Fattree k; flows; duration }
  in
  [ fattree "fattree-k8/1e3" 8 1_000 10.; fattree "fattree-k8/1e4" 8 10_000 10. ]
  @ (if !quick then []
     else
       [
         { id = "as-n512-m2/1e4";
           graph = Workload.Scale.As_graph { nodes = 512; m = 2 };
           flows = 10_000; duration = 10. };
         fattree "fattree-k16/1e5" 16 100_000 10.;
       ])
  @ if !huge then [ fattree "fattree-k16/1e6" 16 1_000_000 5. ] else []

type obs = { rung : rung; wall_s : float; r : Workload.Scale.result; rss_mb : float }

let run_rung rung =
  Gc.compact ();
  let t0 = now () in
  let r =
    Workload.Scale.run ~engine:(Sim.Engine.create ()) ~seed:!seed
      ~label:("bench/" ^ rung.id) ~graph:rung.graph ~n_flows:rung.flows
      ~scheme:Workload.Scale.Corelite ~duration:rung.duration ~reference:true ()
  in
  let wall_s = now () -. t0 in
  { rung; wall_s; r; rss_mb = peak_rss_mb () }

let events_per_s o = float_of_int o.r.events /. Float.max 1e-9 o.wall_s

let rung_row o =
  Printf.sprintf
    "{\"id\": %s, \"graph\": %s, \"flows\": %d, \"duration_s\": %.1f, \
     \"wall_s\": %.3f, \"events\": %d, \"events_per_s\": %.0f, \"sent\": %d, \
     \"delivered\": %d, \"drops\": %d, \"jain_weighted\": %.4f, \
     \"jain_vs_reference\": %.4f, \"mean_rate_pps\": %.3f, \"peak_rss_mb\": %.1f}"
    (str o.rung.id)
    (str (Workload.Scale.graph_name o.rung.graph))
    o.rung.flows o.rung.duration o.wall_s o.r.events (events_per_s o) o.r.sent
    o.r.delivered o.r.drops o.r.jain_weighted
    (Option.get o.r.jain_vs_reference)
    o.r.mean_rate o.rss_mb

let scale () =
  let observations = List.map run_rung (ladder ()) in
  let final_rss = List.fold_left (fun acc o -> Float.max acc o.rss_mb) 0. observations in
  write_report ~sub:"scale"
    ~mode:(if !quick then "quick" else if !huge then "huge" else "full")
    [
      ("nproc", string_of_int (Workload.Pool.default_domains ()));
      ("ocaml", str Sys.ocaml_version);
      ("rev", str (git_rev ()));
      ("scheme", str "corelite");
      ("points", lines ~indent:2 (List.map rung_row observations));
      ("peak_rss_mb", Printf.sprintf "%.1f" final_rss);
    ];
  List.iter
    (fun o ->
      Printf.printf
        "%-18s %8d flows  %7.2f s  %9d events  %8.0f ev/s  jain %.3f  rss %.0f MB\n"
        o.rung.id o.rung.flows o.wall_s o.r.events (events_per_s o) o.r.jain_weighted
        o.rss_mb)
    observations;
  Printf.printf "peak rss: %.1f MB  report: %s\n" final_rss !out;
  gates ~sub:"scale"
    (List.map
       (fun o ->
         ( not (events_per_s o < !min_events_per_s),
           Printf.sprintf "%s BELOW EVENT-RATE FLOOR (%.0f < %.0f ev/s)" o.rung.id
             (events_per_s o) !min_events_per_s ))
       observations
    @ [
        ( not (final_rss > !max_rss_mb),
          Printf.sprintf "PEAK RSS OVER CEILING (%.1f > %.1f MB)" final_rss !max_rss_mb );
      ])

(* ------------------------------------------------------------------ *)
(* Subcommands and their flags *)

let seed_flag what =
  ("--seed", Arg.Set_int seed, Printf.sprintf "N  %s seed (default 42)" what)

let out_flag sub =
  ( "--out",
    Arg.Set_string out,
    Printf.sprintf "PATH  report path (default results/BENCH_%s.json)" sub )

let battery_flags ~sub ~quick_s =
  [
    ("-j", Arg.Set_int domains, "N  shard the parallel pass over N domains");
    ("--domains", Arg.Set_int domains, "N  same as -j");
    ( "--quick",
      Arg.Set quick,
      Printf.sprintf "  %d s runs instead of 80 s (CI smoke test)" quick_s );
    seed_flag "workload";
    ( "--fault-seed",
      Arg.Set_int fault_seed,
      Printf.sprintf "N  fault-plan seed; same seed replays every fault draw (default %d)"
        Workload.Chaos.default_fault_seed );
    out_flag sub;
  ]

let subcommands =
  [
    ("chaos", (battery_flags ~sub:"chaos" ~quick_s:32, chaos));
    ("churn", (battery_flags ~sub:"churn" ~quick_s:40, churn));
    ( "scale",
      ( [
          ("--quick", Arg.Set quick, "  fat-tree k=8 rungs only (CI smoke test)");
          ("--huge", Arg.Set huge, "  add the fat-tree k=16 10^6-flow rung");
          seed_flag "scenario";
          out_flag "scale";
          ( "--min-events-per-s",
            Arg.Set_float min_events_per_s,
            "N  fail if any rung simulates slower than N events/s" );
          ( "--max-rss-mb",
            Arg.Set_float max_rss_mb,
            "N  fail if the final peak RSS exceeds N MB" );
        ],
        scale ) );
  ]

let () =
  let sub = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  match List.assoc_opt sub subcommands with
  | None ->
    prerr_endline
      "usage: bench.exe (chaos | churn | scale) [FLAGS]; bench.exe SUBCOMMAND --help \
       lists its flags";
    exit 2
  | Some (flags, run) ->
    out := Filename.concat "results" (Printf.sprintf "BENCH_%s.json" sub);
    (* Parse from argv.(2); the subcommand stands in for the program
       name in Arg's messages. *)
    Arg.current := 1;
    Arg.parse flags
      (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
      (Printf.sprintf "bench.exe %s [FLAGS]" sub);
    run ()
