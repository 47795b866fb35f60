(* Workloads composed from the layers' public functions, with a span
   around every layer call. Nothing here changes what the library does:
   the scale pipeline replays Workload.Scale.run call for call (same
   graph/flow/deploy labels, same add_flow order, the same two
   schedule_at capture events in the same order, because FIFO
   tie-breaking depends on it), and the figure pipeline is
   make_network + Runner.run + Figures.summarize. The run is cut into
   one span per simulated second, and each second into run_until calls
   of [step] simulated seconds with a [tick] between them; run_until
   leaves nothing pending at or before its limit, and the tick touches
   no simulator state, so the same events run in the same order. A
   [topology_seed] other than the run's seed is the one departure from
   Workload.Scale.run, which draws everything from one seed.

   The traced variant additionally arms Sim.Trace, takes live-heap
   readings between setup phases (each inside its own span, so setup
   children still cover the setup span) and samples the event heap and
   link queues at every slice end. *)

type scale = {
  graph : Workload.Scale.graph_spec;
  scheme : Workload.Scale.scheme;
  n_flows : int;
  duration : float;
  measure_from : float;
  end_fraction : float;  (** lowest-id flows retired at measure_from / 2 *)
  reference : bool;  (** also solve weighted max-min water-filling *)
  topology_seed : int option;
      (** seed of the graph and flow population; [None]: the run's seed *)
}

type kind = Figures of (unit -> Workload.Figures.spec) list | Scale of scale

type workload = {
  name : string;
  label : string;  (** (seed, label) derives the graph, flows and deployment streams *)
  kind : kind;
  rep_s : float;  (** nominal seconds per repetition on the reference host *)
  setups : int;  (** set-up samples per untraced run *)
}

(* Everything one repetition counts. Figure workloads accumulate over
   their seven runs. *)
type counts = {
  mutable flows : int;
  mutable events : int;
  mutable hops : int;
  mutable steady_hops : int;
  mutable steady_s : float;  (** wall time of the slices after measure_from *)
  mutable sent : int;
  mutable delivered : int;
  mutable drops : int;
  mutable jain_sum : float;
  mutable jain_n : int;
  mutable jain_ref : float;
  mutable payloads : (string * string) list;
      (** (file name, bytes): the per-flow CSV or the figure CSVs *)
  mutable live_after_drain : int;
  mutable end_flows : int;
  mutable pending_sum : float;
  mutable pending_max : int;
  mutable queue_sum : float;
  mutable samples : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable net_words : int;
  mutable deployment_words : int;
  tier_drops : int array;  (** access, edge-agg, agg-core, router *)
  mutable markers_seen : int;
  mutable feedback_sent : int;
  mutable feedback_received : int;
  mutable congested_epochs : int;
  mutable early_drops : int;
  mutable losses : int;
  trace : int array;  (** per Sim.Trace kind, in all_kinds order *)
  mutable failures : string list;
}

let counts () =
  {
    flows = 0; events = 0; hops = 0; steady_hops = 0; steady_s = 0.; sent = 0; delivered = 0;
    drops = 0; jain_sum = 0.; jain_n = 0; jain_ref = 0.; payloads = [];
    live_after_drain = 0; end_flows = 0; pending_sum = 0.; pending_max = 0;
    queue_sum = 0.; samples = 0; minor_words = 0.; promoted_words = 0.;
    minor_collections = 0; major_collections = 0; net_words = 0;
    deployment_words = 0; tier_drops = Array.make 4 0; markers_seen = 0;
    feedback_sent = 0; feedback_received = 0; congested_epochs = 0;
    early_drops = 0; losses = 0;
    trace = Array.make (List.length Sim.Trace.all_kinds) 0; failures = [];
  }

let fail c msg = c.failures <- msg :: c.failures

(* Deterministic outputs two runs of the same (workload, seed) must
   agree on exactly, traced or not. *)
let fingerprint c =
  Printf.sprintf "events=%d hops=%d sent=%d delivered=%d drops=%d csv-md5=%s"
    c.events c.hops c.sent c.delivered c.drops
    (Digest.to_hex (Digest.string (String.concat "" (List.map snd c.payloads))))

(* Small ring: per-kind counts survive wrap-around, and nothing reads
   the retained events. *)
let trace_ring = 4096

let add_trace_counts c engine =
  let tr = Sim.Engine.trace engine in
  List.iteri (fun i k -> c.trace.(i) <- c.trace.(i) + Sim.Trace.count tr k) Sim.Trace.all_kinds

let live_words spans =
  Span.with_ spans "gc.full_major" (fun () ->
      Gc.full_major ();
      (Gc.quick_stat ()).Gc.live_words)

let gc_around c f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  c.minor_words <- c.minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  c.promoted_words <- c.promoted_words +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  c.minor_collections <- c.minor_collections + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  c.major_collections <- c.major_collections + (s1.Gc.major_collections - s0.Gc.major_collections);
  v

let hops links = Array.fold_left (fun acc l -> acc + l.Net.Link.arrivals) 0 links

let sample c engine links =
  let p = Sim.Engine.pending engine in
  c.pending_sum <- c.pending_sum +. float_of_int p;
  c.pending_max <- max c.pending_max p;
  let q = Array.fold_left (fun acc l -> acc + Net.Link.queue_length l) 0 links in
  c.queue_sum <- c.queue_sum +. (float_of_int q /. float_of_int (max 1 (Array.length links)));
  c.samples <- c.samples + 1

(* [tick] is how the untraced run probes the host's speed between the
   steps of a repetition (see Pace); the traced run passes a no-op. A
   step of 1/32 simulated second lasts at most about 0.35 s of wall
   time (the last second of fattree-k16-1e5). *)
let step = 1. /. 32.

let run_in_steps engine ~tick ~from limit =
  let k = ref 1 in
  while from +. (float_of_int !k *. step) < limit do
    Sim.Engine.run_until engine (from +. (float_of_int !k *. step));
    tick ();
    incr k
  done;
  Sim.Engine.run_until engine limit

let add_tier_drops c ~tier links =
  Array.iter (fun l -> c.tier_drops.(tier l) <- c.tier_drops.(tier l) + l.Net.Link.drops) links

(* ------------------------------------------------------------------ *)
(* Scale pipeline (Workload.Scale.run, call for call) *)

type deployment = {
  add : Net.Flow.t -> unit;
  end_ : int -> unit;
  live : unit -> int;
  sent_of : int -> int;
  delivered_of : int -> int;
  control_of : int -> int;  (** Corelite feedback received, CSFQ losses *)
  drops_total : unit -> int;
  core_totals : counts -> unit;
}

let deploy scheme ~rng (network : Workload.Network.t) =
  let topology = network.Workload.Network.topology
  and core_links = network.Workload.Network.core_links in
  match scheme with
  | Workload.Scale.Corelite ->
    let params = { Corelite.Params.default with source = Workload.Scale.default_source } in
    let d = Corelite.Deployment.build ~params ~rng ~topology ~flows:[] ~core_links () in
    let agent = Corelite.Deployment.agent d in
    {
      add = (fun f -> ignore (Corelite.Deployment.add_flow d f));
      end_ = Corelite.Deployment.end_flow d;
      live = (fun () -> Corelite.Deployment.live_flows d);
      sent_of = (fun id -> Corelite.Edge.sent (agent id));
      delivered_of = (fun id -> Corelite.Edge.delivered (agent id));
      control_of = (fun id -> Corelite.Edge.feedback_received (agent id));
      drops_total = (fun () -> Corelite.Deployment.total_drops d);
      core_totals =
        (fun c ->
          List.iter
            (fun core ->
              c.markers_seen <- c.markers_seen + Corelite.Core.markers_seen core;
              c.feedback_sent <- c.feedback_sent + Corelite.Core.feedback_sent core;
              c.congested_epochs <- c.congested_epochs + Corelite.Core.congested_epochs core)
            (Corelite.Deployment.cores d));
    }
  | Workload.Scale.Csfq ->
    let params = { Csfq.Params.default with source = Workload.Scale.default_source } in
    let d = Csfq.Deployment.build ~params ~rng ~topology ~flows:[] ~core_links () in
    let agent = Csfq.Deployment.agent d in
    {
      add = (fun f -> ignore (Csfq.Deployment.add_flow d f));
      end_ = Csfq.Deployment.end_flow d;
      live = (fun () -> Csfq.Deployment.live_flows d);
      sent_of = (fun id -> Csfq.Edge.sent (agent id));
      delivered_of = (fun id -> Csfq.Edge.delivered (agent id));
      control_of = (fun id -> Csfq.Edge.losses (agent id));
      drops_total = (fun () -> Csfq.Deployment.total_drops d);
      core_totals =
        (fun c ->
          List.iter
            (fun core -> c.early_drops <- c.early_drops + Csfq.Core.early_drops core)
            (Csfq.Deployment.cores d));
    }
  | Workload.Scale.Drr -> invalid_arg "perf: DRR is not a benchmark scheme"

let scale_tier graph l =
  let open Topo.Graph in
  match (kind graph (link_src graph l), kind graph (link_dst graph l)) with
  | Host, _ | _, Host -> 0
  | (Edge_switch, Agg_switch) | (Agg_switch, Edge_switch) -> 1
  | (Agg_switch, Core_switch) | (Core_switch, Agg_switch) -> 2
  | _ -> 3

let scale_rep ~spans ~traced ~tick ~setup_only ~seed ~label ~csv_name (s : scale) c =
  let engine = Sim.Engine.create () in
  Sim.Metrics.set_auto_probes (Sim.Engine.metrics engine) false;
  if traced then
    Sim.Trace.enable ~capacity:trace_ring ~kinds:Sim.Trace.all_kinds (Sim.Engine.trace engine);
  let rng = Sim.Rng.scenario ~seed ~id:(label ^ "/deploy") in
  let topology_seed = Option.value s.topology_seed ~default:seed in
  let live () = if traced then live_words spans else 0 in
  let setup = Span.enter spans "setup" in
  tick ();
  let graph =
    Span.with_ spans "topo.build" (fun () ->
        match s.graph with
        | Workload.Scale.Fattree k -> Topo.Fattree.build k
        | Workload.Scale.As_graph { nodes; m } ->
          Topo.Asgraph.build ~seed:topology_seed ~label:(label ^ "/graph") ~nodes ~m ())
  in
  tick ();
  let fib = Span.with_ spans "topo.fib" (fun () -> Topo.Fib.compute graph) in
  tick ();
  let pop =
    Span.with_ spans "topo.flows" (fun () ->
        Topo.Flows.generate ~seed:topology_seed ~label:(label ^ "/flows") ~graph ~n:s.n_flows
          ~max_weight:4 ())
  in
  tick ();
  let w0 = live () in
  let network =
    Span.with_ spans "net.build" (fun () ->
        Workload.Network.of_topo ~engine ~delay:0.002 ~queue_capacity:40 ~graph ~fib ~flows:pop ())
  in
  let w1 = live () in
  tick ();
  let d = Span.with_ spans "deployment.build" (fun () -> deploy s.scheme ~rng network) in
  tick ();
  Span.with_ spans "deployment.add_flow" (fun () -> List.iter d.add network.Workload.Network.flows);
  let w2 = live () in
  tick ();
  Span.leave spans setup;
  if not setup_only then begin
    let n = s.n_flows in
    c.flows <- c.flows + n;
    c.net_words <- c.net_words + (w1 - w0);
    c.deployment_words <- c.deployment_words + (w2 - w1);
    let links = Array.of_list (Net.Topology.links network.Workload.Network.topology) in
    let weight_of id = pop.Topo.Flows.weight.(id - 1) in
    let n_ended = int_of_float (s.end_fraction *. float_of_int n) in
    let base_delivered = Array.make (n + 1) 0 in
    let final_sent = Array.make (n + 1) 0 in
    let final_delivered = Array.make (n + 1) 0 in
    let final_control = Array.make (n + 1) 0 in
    let capture id =
      final_sent.(id) <- d.sent_of id;
      final_delivered.(id) <- d.delivered_of id;
      final_control.(id) <- d.control_of id
    in
    let retire first last =
      Span.with_ spans "deployment.end_flow" (fun () ->
          for id = first to last do
            capture id;
            d.end_ id
          done);
      c.end_flows <- c.end_flows + (last - first + 1)
    in
    let t0 = Sim.Engine.now engine in
    let events0 = Sim.Engine.executed engine in
    if n_ended > 0 then
      ignore
        (Sim.Engine.schedule_at engine ~time:(t0 +. (s.measure_from /. 2.)) (fun () ->
             retire 1 n_ended));
    ignore
      (Sim.Engine.schedule_at engine ~time:(t0 +. s.measure_from) (fun () ->
           for id = n_ended + 1 to n do
             base_delivered.(id) <- d.delivered_of id
           done));
    Span.with_ spans "run" (fun () ->
        let stop = t0 +. s.duration in
        let slices = int_of_float (Float.ceil s.duration) in
        let prev = ref 0 in
        for i = 1 to slices do
          let limit = if i = slices then stop else t0 +. float_of_int i in
          let slice = Span.enter spans "sim.run_until" in
          gc_around c (fun () ->
              run_in_steps engine ~tick ~from:(t0 +. float_of_int (i - 1)) limit);
          Span.leave spans slice;
          tick ();
          let h = hops links in
          if float_of_int (i - 1) >= s.measure_from then begin
            c.steady_hops <- c.steady_hops + (h - !prev);
            c.steady_s <- c.steady_s +. Span.duration slice
          end;
          prev := h;
          sample c engine links
        done;
        c.drops <- c.drops + d.drops_total ();
        d.core_totals c;
        retire (n_ended + 1) n;
        tick ();
        c.live_after_drain <- c.live_after_drain + d.live ());
    c.events <- c.events + (Sim.Engine.executed engine - events0);
    c.hops <- c.hops + hops links;
    add_tier_drops c ~tier:(fun l -> scale_tier graph l.Net.Link.id) links;
    if traced then add_trace_counts c engine;
    Span.with_ spans "analysis" (fun () ->
        let window = s.duration -. s.measure_from in
        let measured = n - n_ended in
        let rates =
          Array.init measured (fun i ->
              let id = n_ended + 1 + i in
              float_of_int (final_delivered.(id) - base_delivered.(id)) /. window)
        in
        let weights = Array.init measured (fun i -> weight_of (n_ended + 1 + i)) in
        let jain =
          Span.with_ spans "fairness.jain" (fun () -> Fairness.Metrics.jain_index ~rates ~weights)
        in
        c.jain_sum <- c.jain_sum +. jain;
        c.jain_n <- c.jain_n + 1;
        if s.reference then
          c.jain_ref <-
            Span.with_ spans "fairness.maxmin" (fun () ->
                let demands =
                  List.filter_map
                    (fun f ->
                      let id = f.Net.Flow.id in
                      if id <= n_ended then None
                      else
                        Some
                          (Fairness.Maxmin.demand ~flow:id ~weight:f.Net.Flow.weight
                             ~links:
                               (List.map
                                  (fun l -> l.Net.Link.id)
                                  (Net.Flow.links f network.Workload.Network.topology))
                             ()))
                    network.Workload.Network.flows
                in
                let expected = Array.make (n + 1) 0. in
                List.iter
                  (fun (id, rate) -> expected.(id) <- rate)
                  (Fairness.Maxmin.solve
                     ~capacities:(Workload.Network.link_capacities network)
                     ~demands);
                let ratios =
                  Array.init measured (fun i ->
                      let e = expected.(n_ended + 1 + i) in
                      if e > 0. then rates.(i) /. e else 0.)
                in
                Fairness.Metrics.jain_index ~rates:ratios ~weights:(Array.make measured 1.));
        Span.with_ spans "analysis.csv" (fun () ->
            let b = Buffer.create (64 * (n + 1)) in
            Buffer.add_string b "flow,src,dst,weight,sent,delivered\n";
            for id = 1 to n do
              Printf.bprintf b "%d,%d,%d,%g,%d,%d\n" id
                pop.Topo.Flows.src.(id - 1)
                pop.Topo.Flows.dst.(id - 1)
                pop.Topo.Flows.weight.(id - 1)
                final_sent.(id) final_delivered.(id)
            done;
            c.payloads <- c.payloads @ [ (csv_name, Buffer.contents b) ]));
    for id = 1 to n do
      c.sent <- c.sent + final_sent.(id);
      c.delivered <- c.delivered + final_delivered.(id);
      (match s.scheme with
      | Workload.Scale.Corelite -> c.feedback_received <- c.feedback_received + final_control.(id)
      | Workload.Scale.Csfq | Workload.Scale.Drr -> c.losses <- c.losses + final_control.(id))
    done;
    if c.live_after_drain <> 0 then fail c (Printf.sprintf "%d flows live after the drain" c.live_after_drain)
  end

(* ------------------------------------------------------------------ *)
(* Figure pipeline (make_network + Runner.run + Figures.summarize) *)

let node_tier topology =
  let edge = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace edge n.Net.Node.id (Net.Node.is_edge n)) (Net.Topology.nodes topology);
  fun l -> if Hashtbl.find edge l.Net.Link.src || Hashtbl.find edge l.Net.Link.dst then 0 else 3

let figure_rep ~spans ~traced ~tick ~setup_only ~seed specs c =
  List.iter
    (fun mk ->
      tick ();
      let spec = mk () in
      let id = spec.Workload.Figures.id in
      Span.with_ spans id (fun () ->
          let engine = Sim.Engine.create () in
          let w0 = if traced && not setup_only then live_words spans else 0 in
          let network =
            Span.with_ spans "setup" (fun () ->
                Span.with_ spans "net.build" (fun () -> spec.Workload.Figures.make_network ~engine))
          in
          if not setup_only then begin
            let w1 = if traced then live_words spans else 0 in
            let topology = network.Workload.Network.topology in
            let flows = network.Workload.Network.flows in
            c.flows <- c.flows + List.length flows;
            c.net_words <- c.net_words + (w1 - w0);
            let trace =
              if traced then Some (Sim.Trace.spec ~capacity:trace_ring ~kinds:Sim.Trace.all_kinds ())
              else None
            in
            let run = Span.enter spans "run" in
            let runner = Span.enter spans "workload.runner" in
            let result =
              gc_around c (fun () ->
                  Workload.Runner.run ~scheme:spec.Workload.Figures.scheme ~network ~seed ?trace
                    ~schedule:spec.Workload.Figures.schedule
                    ~duration:spec.Workload.Figures.duration ())
            in
            Span.leave spans runner;
            Span.leave spans run;
            tick ();
            let links = Array.of_list (Net.Topology.links topology) in
            sample c engine links;
            c.events <- c.events + Sim.Engine.executed engine;
            c.hops <- c.hops + hops links;
            (* A figure run has no warm-up cut: its whole run is the window. *)
            c.steady_hops <- c.steady_hops + hops links;
            c.steady_s <- c.steady_s +. Span.duration runner;
            c.drops <- c.drops + Array.fold_left (fun acc l -> acc + l.Net.Link.drops) 0 links;
            (* Every flow owns its ingress link on the hand-built
               topologies, so its arrivals are the packets sent. *)
            List.iter
              (fun f ->
                match Net.Flow.links f topology with
                | first :: _ -> c.sent <- c.sent + first.Net.Link.arrivals
                | [] -> ())
              flows;
            List.iter
              (fun (_, ts) ->
                match Sim.Timeseries.last ts with
                | Some (_, v) -> c.delivered <- c.delivered + int_of_float v
                | None -> ())
              result.Workload.Runner.cumulative;
            c.feedback_sent <- c.feedback_sent + result.Workload.Runner.feedback_markers;
            c.early_drops <- c.early_drops + result.Workload.Runner.early_drops;
            add_tier_drops c ~tier:(node_tier topology) links;
            if traced then add_trace_counts c engine;
            Span.with_ spans "analysis" (fun () ->
                let summary =
                  Span.with_ spans "workload.summarize" (fun () ->
                      Workload.Figures.summarize spec result)
                in
                List.iter
                  (fun ps ->
                    c.jain_sum <- c.jain_sum +. ps.Workload.Figures.jain;
                    c.jain_n <- c.jain_n + 1)
                  summary.Workload.Figures.phase_summaries;
                let payloads =
                  Span.with_ spans "analysis.csv" (fun () -> Workload.Csv.result_strings result)
                in
                c.payloads <-
                  c.payloads
                  @ List.map (fun (kind, csv) -> (Printf.sprintf "%s_%s.csv" id kind, csv)) payloads)
          end))
    specs

let rep ~spans ~traced ~tick ~setup_only ~seed w c =
  match w.kind with
  | Figures specs -> figure_rep ~spans ~traced ~tick ~setup_only ~seed specs c
  | Scale s ->
    scale_rep ~spans ~traced ~tick ~setup_only ~seed ~label:w.label ~csv_name:(w.name ^ ".csv") s c

(* Figure payloads must match the committed results/ CSVs byte for
   byte (at the seed they were generated with). fig3's run also stands
   for fig4, which plots the same run. *)
let check_goldens c ~dir =
  List.iter
    (fun (name, csv) ->
      let aliases =
        if String.starts_with ~prefix:"fig3_" name then
          [ name; "fig4_" ^ String.sub name 5 (String.length name - 5) ]
        else if String.starts_with ~prefix:"fig" name then [ name ]
        else []
      in
      List.iter
        (fun golden ->
          let path = Filename.concat dir golden in
          match In_channel.with_open_bin path In_channel.input_all with
          | bytes when String.equal bytes csv -> ()
          | _ -> fail c (path ^ " differs from the run's payload")
          | exception Sys_error e -> fail c ("golden payload unreadable: " ^ e))
        aliases)
    c.payloads

(* ns per add+pop pair on an Event_queue prefilled to [depth]: the
   hold model (pop the minimum, push it back a random step later), the
   engine's own access pattern with no simulation around it. *)
let isolated_queue_ns ~depth ~seed =
  let q : (unit -> unit) Sim.Event_queue.t = Sim.Event_queue.create () in
  let rng = Sim.Rng.create seed in
  let steps = Array.init 4096 (fun _ -> Sim.Rng.float rng 1.) in
  let noop () = () in
  for i = 0 to depth - 1 do
    Sim.Event_queue.add q ~key:steps.(i land 4095) ~seq:i noop
  done;
  let ops = 1_000_000 in
  let t0 = Span.now () in
  for i = 0 to ops - 1 do
    let t = Sim.Event_queue.next_time q in
    let (_ : unit -> unit) = Sim.Event_queue.pop_exn q in
    Sim.Event_queue.add q ~key:(t +. steps.(i land 4095)) ~seq:(depth + i) noop
  done;
  (Span.now () -. t0) *. 1e9 /. float_of_int ops
