(* Scale benchmark: events/s and peak RSS versus flow count on
   generated topologies (the 10^3 -> 10^6 ladder).

   Each point regenerates its graph, FIB and flow population from
   (seed, label), runs one scheme through Workload.Scale's streaming
   harness, and reports wall time, executed events, delivered packets,
   throughput, weighted Jain, Jain against the water-filling reference
   (Fairness.Maxmin over the flows alive through the measurement
   window) and the process peak RSS (VmHWM). jain_weighted stays the
   printed headline until a convergence test says when the reference
   figure is meaningful (ROADMAP). A point's wall_s includes the
   reference solve: 10 ms of 3.7 s at 10^4 flows and 0.15 s of 65 s at
   10^5 on a 2-vCPU host, about 0.2-0.3%. VmHWM is a high-water
   mark, so the ladder runs in ascending flow order and each point's
   figure is "peak RSS after this point completed" — the sub-linearity
   witness is the ratio between successive rungs staying far below the
   10x flow-count ratio.

   results/BENCH_scale.json is the committed artefact; its header names
   the host (nproc, OCaml version) and the git rev it was run at. Run
   it from the repository root. CI gates on
   [--min-events-per-s] (every point) and [--max-rss-mb] (final peak),
   both deterministic enough for shared runners because events and RSS
   are dominated by simulation structure, not machine noise. *)

let now () = Unix.gettimeofday () (* lint: determinism-ok *)

let quick = ref false

let huge = ref false

let out_path = ref (Filename.concat "results" "BENCH_scale.json")

let min_events_per_s = ref 0.

let max_rss_mb = ref infinity

let seed = ref 42

(* Peak resident set (VmHWM) in MB from /proc/self/status; 0 when the
   proc filesystem is unavailable (non-Linux dev machines). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let mb = scan () in
    close_in ic;
    mb

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

type point = {
  id : string;
  graph : Workload.Scale.graph_spec;
  n_flows : int;
  duration : float;
}

let ladder () =
  let base =
    [
      { id = "fattree-k8/1e3"; graph = Workload.Scale.Fattree 8; n_flows = 1_000; duration = 10. };
      { id = "fattree-k8/1e4"; graph = Workload.Scale.Fattree 8; n_flows = 10_000; duration = 10. };
    ]
  in
  let big =
    [
      { id = "as-n512-m2/1e4";
        graph = Workload.Scale.As_graph { nodes = 512; m = 2 };
        n_flows = 10_000; duration = 10. };
      { id = "fattree-k16/1e5"; graph = Workload.Scale.Fattree 16; n_flows = 100_000; duration = 10. };
    ]
  in
  let monster =
    [ { id = "fattree-k16/1e6"; graph = Workload.Scale.Fattree 16; n_flows = 1_000_000; duration = 5. } ]
  in
  base @ (if !quick then [] else big) @ if !huge then monster else []

type obs = {
  point : point;
  wall_s : float;
  events : int;
  sent : int;
  delivered : int;
  drops : int;
  jain : float;
  jain_ref : float;
  mean_rate : float;
  rss_mb : float;  (** process peak RSS after this point, cumulative *)
}

let run_point p =
  Gc.compact ();
  let engine = Sim.Engine.create () in
  let t0 = now () in
  let r =
    Workload.Scale.run ~engine ~seed:!seed ~label:("bench/" ^ p.id)
      ~graph:p.graph ~n_flows:p.n_flows ~scheme:Workload.Scale.Corelite
      ~duration:p.duration ~reference:true ()
  in
  let wall_s = now () -. t0 in
  {
    point = p;
    wall_s;
    events = r.Workload.Scale.events;
    sent = r.Workload.Scale.sent;
    delivered = r.Workload.Scale.delivered;
    drops = r.Workload.Scale.drops;
    jain = r.Workload.Scale.jain_weighted;
    jain_ref = Option.get r.Workload.Scale.jain_vs_reference;
    mean_rate = r.Workload.Scale.mean_rate;
    rss_mb = peak_rss_mb ();
  }

let events_per_s o = float_of_int o.events /. Float.max 1e-9 o.wall_s

let obs_json o =
  Printf.sprintf
    "{\"id\": \"%s\", \"graph\": \"%s\", \"flows\": %d, \"duration_s\": %.1f, \
     \"wall_s\": %.3f, \"events\": %d, \"events_per_s\": %.0f, \"sent\": %d, \
     \"delivered\": %d, \"drops\": %d, \"jain_weighted\": %.4f, \
     \"jain_vs_reference\": %.4f, \"mean_rate_pps\": %.3f, \"peak_rss_mb\": %.1f}"
    o.point.id
    (Workload.Scale.graph_name o.point.graph)
    o.point.n_flows o.point.duration o.wall_s o.events (events_per_s o) o.sent
    o.delivered o.drops o.jain o.jain_ref o.mean_rate o.rss_mb

let write_report observations =
  let oc = open_out !out_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"harness\": \"bench/scale_bench.ml\",\n";
  p "  \"mode\": \"%s\",\n"
    (if !quick then "quick" else if !huge then "huge" else "full");
  p "  \"seed\": %d,\n" !seed;
  p "  \"nproc\": %d,\n" (Workload.Pool.default_domains ());
  p "  \"ocaml\": \"%s\",\n" Sys.ocaml_version;
  p "  \"rev\": \"%s\",\n" (git_rev ());
  p "  \"scheme\": \"corelite\",\n";
  p "  \"points\": [\n";
  List.iteri
    (fun i o ->
      p "    %s%s\n" (obs_json o)
        (if i = List.length observations - 1 then "" else ","))
    observations;
  p "  ],\n";
  p "  \"peak_rss_mb\": %.1f\n"
    (List.fold_left (fun acc o -> Float.max acc o.rss_mb) 0. observations);
  p "}\n";
  close_out oc

let () =
  Arg.parse
    [
      ("--quick", Arg.Set quick, "  fat-tree k=8 rungs only (CI smoke test)");
      ("--huge", Arg.Set huge, "  add the fat-tree k=16 10^6-flow rung");
      ("--seed", Arg.Set_int seed, "N  scenario seed (default 42)");
      ( "--out",
        Arg.Set_string out_path,
        "PATH  report path (default results/BENCH_scale.json)" );
      ( "--min-events-per-s",
        Arg.Set_float min_events_per_s,
        "N  fail if any point simulates slower than N events/s" );
      ( "--max-rss-mb",
        Arg.Set_float max_rss_mb,
        "N  fail if the final peak RSS exceeds N MB" );
    ]
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "scale_bench.exe [--quick] [--huge] [--out PATH] [--min-events-per-s N] \
     [--max-rss-mb N]";
  let observations = List.map run_point (ladder ()) in
  write_report observations;
  List.iter
    (fun o ->
      Printf.printf
        "%-18s %8d flows  %7.2f s  %9d events  %8.0f ev/s  jain %.3f  rss \
         %.0f MB\n"
        o.point.id o.point.n_flows o.wall_s o.events (events_per_s o) o.jain
        o.rss_mb)
    observations;
  let final_rss =
    List.fold_left (fun acc o -> Float.max acc o.rss_mb) 0. observations
  in
  Printf.printf "peak rss: %.1f MB  report: %s\n" final_rss !out_path;
  let slow =
    List.filter (fun o -> events_per_s o < !min_events_per_s) observations
  in
  List.iter
    (fun o ->
      Printf.eprintf "scale_bench: %s BELOW EVENT-RATE FLOOR (%.0f < %.0f ev/s)\n"
        o.point.id (events_per_s o) !min_events_per_s)
    slow;
  if final_rss > !max_rss_mb then
    Printf.eprintf "scale_bench: PEAK RSS OVER CEILING (%.1f > %.1f MB)\n"
      final_rss !max_rss_mb;
  if slow <> [] || final_rss > !max_rss_mb then exit 1
