(* Streaming scale harness: run a scheme over a generated topology at
   10^3..10^6 flows keeping only O(flows) integer counters — no
   per-flow timeseries, no per-flow metric probes. *)

type scheme = Corelite | Csfq | Drr

let scheme_name = function Corelite -> "corelite" | Csfq -> "csfq" | Drr -> "drr"

type graph_spec = Fattree of int | As_graph of { nodes : int; m : int }

let graph_name = function
  | Fattree k -> Printf.sprintf "fattree-k%d" k
  | As_graph { nodes; m } -> Printf.sprintf "as-n%d-m%d" nodes m

type result = {
  label : string;
  scheme : scheme;
  graph : graph_spec;
  n_nodes : int;
  n_links : int;
  n_hosts : int;
  n_flows : int;
  duration : float;
  measure_from : float;
  events : int;
  sent : int;
  delivered : int;
  drops : int;
  ended_early : int;
  live_at_end : int;
  mean_rate : float;
  jain_weighted : float;
  jain_vs_reference : float option;
  csv : string option;
}

(* The adaptation loop must settle near per-unit-weight shares of a few
   pkt/s (hundreds of flows share each 500 pkt/s link), so the paper's
   alpha = beta = 1 pkt/s steps — tuned for 30..160 pkt/s shares —
   oscillate across the whole share. Scale runs default to gentler
   steps and an earlier slow-start exit. *)
let default_source =
  { Net.Source.default_params with alpha = 0.25; beta = 0.25; ss_thresh = 8. }

(* Datacenter-scale links at the default bandwidth: 2 ms propagation
   and 40-packet buffers. Flow weights are drawn from 1 to 4. *)
let delay = 0.002

let queue_capacity = 40

let max_weight = 4

let run ~engine ~seed ~label ~graph:gspec ~n_flows ~scheme ?(duration = 20.)
    ?(end_fraction = 0.) ?(reference = false) ?(csv = false) ?trace () =
  if n_flows < 1 then invalid_arg "Scale.run: need at least one flow";
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Scale.run: duration must be positive and finite";
  (* Written so that NaN fails too: every comparison with NaN is false. *)
  if not (end_fraction >= 0. && end_fraction < 1.) then
    invalid_arg "Scale.run: end_fraction must be in [0, 1)";
  let measure_from = duration /. 2. in
  let end_at = measure_from /. 2. in
  let n_ended = int_of_float (end_fraction *. float_of_int n_flows) in
  let graph =
    match gspec with
    | Fattree k -> Topo.Fattree.build k
    | As_graph { nodes; m } ->
      Topo.Asgraph.build ~seed ~label:(label ^ "/graph") ~nodes ~m ()
  in
  let fib = Topo.Fib.compute graph in
  let pop =
    Topo.Flows.generate ~seed ~label:(label ^ "/flows") ~graph ~n:n_flows
      ~max_weight ()
  in
  (match trace with
  | Some spec -> Sim.Trace.apply (Sim.Engine.trace engine) spec
  | None -> ());
  let weight_of id =
    if id >= 1 && id <= n_flows then pop.Topo.Flows.weight.(id - 1) else 1.
  in
  let core_qdisc =
    match scheme with
    | Corelite | Csfq -> None
    | Drr -> Some (fun () -> Net.Qdisc.drr ~weight:weight_of ~capacity:queue_capacity ())
  in
  let network =
    Network.of_topo ~engine ~delay ~queue_capacity ?core_qdisc
      ~graph ~fib ~flows:pop ()
  in
  let rng = Sim.Rng.scenario ~seed ~id:(label ^ "/deploy") in
  (* Drr rides the CSFQ edge shaping with cores detached. *)
  let driver =
    Runner.deploy ~fault:None
      (match scheme with
      | Corelite -> Runner.Corelite { Corelite.Params.default with source = default_source }
      | Csfq -> Runner.Csfq { Csfq.Params.default with source = default_source }
      | Drr -> Runner.Plain { Csfq.Params.default with source = default_source })
      ~rng ~network ~flows:[]
  in
  (* Streaming per-flow aggregation: three flat int arrays — delivered
     at the measurement start, and final sent/delivered captured just
     before each flow retires (agents are unreadable afterwards). *)
  let base_delivered = Array.make (n_flows + 1) 0 in
  let final_sent = Array.make (n_flows + 1) 0 in
  let final_delivered = Array.make (n_flows + 1) 0 in
  let capture id =
    let agent = driver.agent id in
    final_sent.(id) <- Runner.sent agent;
    final_delivered.(id) <- Runner.delivered agent
  in
  let t0 = Sim.Engine.now engine in
  let events0 = Sim.Engine.executed engine in
  List.iter (fun flow -> ignore (driver.add_flow ~size:0 flow)) network.Network.flows;
  if n_ended > 0 then
    Sim.Engine.schedule_at engine ~time:(t0 +. end_at) (fun () ->
        for id = 1 to n_ended do
          capture id;
          driver.end_flow id
        done);
  Sim.Engine.schedule_at engine ~time:(t0 +. measure_from) (fun () ->
      for id = n_ended + 1 to n_flows do
        base_delivered.(id) <- Runner.delivered (driver.agent id)
      done);
  Sim.Engine.run_until engine (t0 +. duration);
  let live_at_end = driver.live_flows () in
  let drops = driver.total_drops () in
  for id = n_ended + 1 to n_flows do
    capture id;
    driver.end_flow id
  done;
  let events = Sim.Engine.executed engine - events0 in
  let window = duration -. measure_from in
  let measured = n_flows - n_ended in
  let rates = Array.make measured 0. in
  let weights = Array.make measured 0. in
  for id = n_ended + 1 to n_flows do
    rates.(id - n_ended - 1) <-
      float_of_int (final_delivered.(id) - base_delivered.(id)) /. window;
    weights.(id - n_ended - 1) <- weight_of id
  done;
  let mean_rate =
    if measured = 0 then 0.
    else Array.fold_left ( +. ) 0. rates /. float_of_int measured
  in
  let jain_weighted = Fairness.Metrics.jain_index ~rates ~weights in
  let jain_vs_reference =
    if not reference then None
    else begin
      (* Water-filling over the flows alive through the window. *)
      let expected = Array.make (n_flows + 1) 0. in
      List.iter
        (fun (id, rate) -> expected.(id) <- rate)
        (Network.expected_rates network
           ~active:(List.init measured (fun i -> n_ended + 1 + i)));
      let ratios = Array.make measured 0. in
      let ones = Array.make measured 1. in
      for id = n_ended + 1 to n_flows do
        let e = expected.(id) in
        ratios.(id - n_ended - 1) <-
          (if e > 0. then rates.(id - n_ended - 1) /. e else 0.)
      done;
      Some (Fairness.Metrics.jain_index ~rates:ratios ~weights:ones)
    end
  in
  let csv =
    if not csv then None
    else begin
      let buf = Buffer.create (64 * (n_flows + 1)) in
      Buffer.add_string buf "flow,src,dst,weight,sent,delivered\n";
      for id = 1 to n_flows do
        Buffer.add_string buf
          (Printf.sprintf "%d,%d,%d,%g,%d,%d\n" id
             pop.Topo.Flows.src.(id - 1)
             pop.Topo.Flows.dst.(id - 1)
             pop.Topo.Flows.weight.(id - 1)
             final_sent.(id) final_delivered.(id))
      done;
      Some (Buffer.contents buf)
    end
  in
  {
    label;
    scheme;
    graph = gspec;
    n_nodes = Topo.Graph.n_nodes graph;
    n_links = Topo.Graph.n_links graph;
    n_hosts = Topo.Graph.n_hosts graph;
    n_flows;
    duration;
    measure_from;
    events;
    sent = Array.fold_left ( + ) 0 final_sent;
    delivered = Array.fold_left ( + ) 0 final_delivered;
    drops;
    ended_early = n_ended;
    live_at_end;
    mean_rate;
    jain_weighted;
    jain_vs_reference;
    csv;
  }
