(* The generated-topology scale ladder, the one gated run outside the
   benchmark proper (bench/perf). Run from the repository root:

     dune exec bench/bench.exe -- [--quick] [--huge] [--seed N] [--out PATH]
                                  [--min-events-per-s N] [--max-rss-mb N]

   The ladder runs Corelite from 10^3 to 10^5 flows (fat-tree k=8 only
   with --quick, 10^6 flows added with --huge), writes
   results/BENCH_scale.json (or --out) and exits 1 when a rung
   simulates fewer than --min-events-per-s events/s or the final peak
   RSS exceeds --max-rss-mb. The report names its host (nproc, OCaml
   version) and the git rev it ran at.

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

let quick = ref false

let huge = ref false

let seed = ref 42

let out = ref (Filename.concat "results" "BENCH_scale.json")

let min_events_per_s = ref 0.

let max_rss_mb = ref infinity

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
  let fields =
    [
      ("harness", str "bench/bench.ml scale");
      ("mode", str (if !quick then "quick" else if !huge then "huge" else "full"));
      ("seed", string_of_int !seed);
      ("nproc", string_of_int (Workload.Pool.default_domains ()));
      ("ocaml", str Sys.ocaml_version);
      ("rev", str (git_rev ()));
      ("scheme", str "corelite");
      ("points", lines ~indent:2 (List.map rung_row observations));
      ("peak_rss_mb", Printf.sprintf "%.1f" final_rss);
    ]
  in
  Out_channel.with_open_text !out (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "  %s: %s" (str k) v) fields)));
  List.iter
    (fun o ->
      Printf.printf
        "%-18s %8d flows  %7.2f s  %9d events  %8.0f ev/s  jain %.3f  rss %.0f MB\n"
        o.rung.id o.rung.flows o.wall_s o.r.events (events_per_s o) o.r.jain_weighted
        o.rss_mb)
    observations;
  Printf.printf "peak rss: %.1f MB  report: %s\n" final_rss !out;
  (* Report every failed gate, then exit 1 if there was one. *)
  let failed =
    List.filter_map
      (fun o ->
        if events_per_s o < !min_events_per_s then
          Some
            (Printf.sprintf "%s BELOW EVENT-RATE FLOOR (%.0f < %.0f ev/s)" o.rung.id
               (events_per_s o) !min_events_per_s)
        else None)
      observations
    @
    if final_rss > !max_rss_mb then
      [ Printf.sprintf "PEAK RSS OVER CEILING (%.1f > %.1f MB)" final_rss !max_rss_mb ]
    else []
  in
  List.iter (fun msg -> Printf.eprintf "bench: %s\n" msg) failed;
  if failed <> [] then exit 1

let () =
  Arg.parse
    [
      ("--quick", Arg.Set quick, "  fat-tree k=8 rungs only (CI smoke test)");
      ("--huge", Arg.Set huge, "  add the fat-tree k=16 10^6-flow rung");
      ("--seed", Arg.Set_int seed, "N  scenario seed (default 42)");
      ("--out", Arg.Set_string out, "PATH  report path (default results/BENCH_scale.json)");
      ( "--min-events-per-s",
        Arg.Set_float min_events_per_s,
        "N  fail if any rung simulates slower than N events/s" );
      ("--max-rss-mb", Arg.Set_float max_rss_mb, "N  fail if the final peak RSS exceeds N MB");
    ]
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "bench.exe [FLAGS]";
  scale ()
