type scheme =
  | Corelite of Corelite.Params.t
  | Csfq of Csfq.Params.t
  | Plain of Csfq.Params.t

let scheme_name = function
  | Corelite _ -> "corelite"
  | Csfq _ -> "csfq"
  | Plain _ -> "plain"

type action = Start of int | Stop of int

type fault_stats = {
  injected_drops : int;
  stripped_markers : int;
  lost_feedback : int;
  flaps : int;
}

type result = {
  scheme : string;
  network : Network.t;
  rate_series : (int * Sim.Timeseries.t) list;
  goodput_series : (int * Sim.Timeseries.t) list;
  cumulative : (int * Sim.Timeseries.t) list;
  core_drops : int;
  feedback_markers : int;
  early_drops : int;
  mean_delays : (int * float) list;
  drops_by_flow : (int * int) list;
  fault : fault_stats option;
}

type agent = Corelite_edge of Corelite.Edge.t | Csfq_edge of Csfq.Edge.t

let sent = function Corelite_edge a -> Corelite.Edge.sent a | Csfq_edge a -> Csfq.Edge.sent a

let delivered = function
  | Corelite_edge a -> Corelite.Edge.delivered a
  | Csfq_edge a -> Csfq.Edge.delivered a

let rate = function
  | Corelite_edge a -> if Corelite.Edge.running a then Corelite.Edge.rate a else 0.
  | Csfq_edge a -> if Csfq.Edge.running a then Csfq.Edge.rate a else 0.

let mean_delay = function
  | Corelite_edge a -> Corelite.Edge.mean_delay a
  | Csfq_edge a -> Csfq.Edge.mean_delay a

let set_backlogged agent on =
  match agent with
  | Corelite_edge a -> Corelite.Edge.set_backlogged a on
  | Csfq_edge a -> Csfq.Edge.set_backlogged a on

type driver = {
  agent : int -> agent;
  add_flow : size:int -> Net.Flow.t -> agent;
  start_flow : int -> unit;
  stop_flow : int -> unit;
  end_flow : int -> unit;
  expire_idle : timeout:float -> int;
  has_flow : int -> bool;
  live_flows : unit -> int;
  total_drops : unit -> int;
  drops_of_flow : int -> int;
  feedback : unit -> int;
  early_drops : unit -> int;
  schedule_resets : Sim.Faultplan.t -> unit;
}

(* The lifecycle half of a driver is the same for every deployment. *)
let driver (type d a) (module D : Net.Agents.S with type t = d and type agent = a) (d : d)
    (view : a -> agent) ~feedback ~early_drops ~schedule_resets =
  {
    agent = (fun id -> view (D.agent d id));
    add_flow = (fun ~size flow -> view (D.add_flow d ~size flow));
    start_flow = D.start_flow d;
    stop_flow = D.stop_flow d;
    end_flow = D.end_flow d;
    expire_idle = D.expire_idle d;
    has_flow = D.has_flow d;
    live_flows = (fun () -> D.live_flows d);
    total_drops = (fun () -> D.total_drops d);
    drops_of_flow = D.drops_of_flow d;
    feedback;
    early_drops;
    schedule_resets;
  }

let deploy ~fault scheme ~rng ~network ~flows =
  let topology = network.Network.topology and core_links = network.Network.core_links in
  match scheme with
  | Corelite params ->
    let d = Corelite.Deployment.build ?fault ~params ~rng ~topology ~flows ~core_links () in
    driver (module Corelite.Deployment) d
      (fun a -> Corelite_edge a)
      ~feedback:(fun () -> Corelite.Deployment.total_feedback d)
      ~early_drops:(fun () -> 0)
      ~schedule_resets:(Corelite.Deployment.schedule_resets d)
  | Csfq params | Plain params ->
    let attach_cores = match scheme with Plain _ -> false | Corelite _ | Csfq _ -> true in
    let d =
      Csfq.Deployment.build ~attach_cores ~params ~rng ~topology ~flows ~core_links ()
    in
    driver (module Csfq.Deployment) d
      (fun a -> Csfq_edge a)
      ~feedback:(fun () -> 0)
      ~early_drops:(fun () ->
        List.fold_left (fun acc c -> acc + Csfq.Core.early_drops c) 0
          (Csfq.Deployment.cores d))
      ~schedule_resets:(fun plan ->
        (* Loss and flaps are scheme-agnostic link behaviour, but a
           router reset wipes scheme soft state, which only the
           Corelite deployment models. *)
        if plan.Sim.Faultplan.resets <> [] then
          invalid_arg "Runner.run: router resets require the Corelite scheme")

(* Every flow's rate, goodput and cumulative delivery are sampled once
   per simulated second. *)
let sample_period = 1.

let run ~scheme ~network ?(seed = 42) ?rng ?fault ?trace ?(floors = []) ?(bursty = [])
    ?(burst_distribution = Net.Onoff.Exponential) ~schedule ~duration () =
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Runner.run: duration must be positive and finite";
  let engine = network.Network.engine in
  (* Arm tracing before the deployment is built so construction-time
     events (initial rate updates at the first Start) are caught.
     Recording is a pure observer: with [trace] omitted every recording
     site stays behind a false guard and the run is byte-identical to
     an untraced one. *)
  (match trace with
  | Some spec -> Sim.Trace.apply (Sim.Engine.trace engine) spec
  | None -> ());
  let rng = match rng with Some r -> r | None -> Sim.Rng.create seed in
  (* The injector draws only from the plan's own (seed, label)-derived
     substreams, so wiring it here perturbs nothing: with [fault]
     omitted (or a passive plan) the run is byte-identical to one
     without this code path. *)
  let injector =
    Option.map (fun plan -> Net.Fault.apply ~topology:network.Network.topology plan) fault
  in
  let flows =
    List.map
      (fun f ->
        Net.Agents.spec ~floor:(Option.value ~default:0. (List.assoc_opt f.Net.Flow.id floors)) f)
      network.Network.flows
  in
  let driver = deploy ~fault:injector scheme ~rng ~network ~flows in
  Option.iter driver.schedule_resets fault;
  List.iter
    (fun (time, action) ->
      let act =
        match action with
        | Start id -> fun () -> driver.start_flow id
        | Stop id -> fun () -> driver.stop_flow id
      in
      Sim.Engine.schedule_at engine ~time act)
    schedule;
  let ids = List.map (fun f -> f.Net.Flow.id) network.Network.flows in
  let agents = List.map (fun id -> (id, driver.agent id)) ids in
  List.iter
    (fun (id, on_mean, off_mean) ->
      ignore
        (Net.Onoff.start ~engine ~rng:(Sim.Rng.split rng)
           ~distribution:burst_distribution ~on_mean ~off_mean
           (fun on -> set_backlogged (List.assoc id agents) on)))
    bursty;
  let series () = List.map (fun id -> (id, Sim.Timeseries.create ())) ids in
  let rates = series () in
  let goodputs = series () in
  let cumulatives = series () in
  let previous_delivered = Hashtbl.create 32 in
  List.iter (fun id -> Hashtbl.replace previous_delivered id 0) ids;
  let registry = Sim.Engine.metrics engine in
  let m_samples =
    Sim.Metrics.counter registry "runner.samples"
      ~help:"sampling ticks taken, one per sample_period"
  in
  let m_goodput =
    Sim.Metrics.histogram registry "runner.goodput"
      ~help:"per-flow goodput samples, pkt/s, across all flows"
  in
  let sample () =
    let now = Sim.Engine.now engine in
    Sim.Metrics.incr m_samples;
    List.iter
      (fun (id, agent) ->
        Sim.Timeseries.add (List.assoc id rates) now (rate agent);
        let total = delivered agent in
        let before = Hashtbl.find previous_delivered id in
        Hashtbl.replace previous_delivered id total;
        let goodput = float_of_int (total - before) /. sample_period in
        Sim.Metrics.observe m_goodput goodput;
        Sim.Timeseries.add (List.assoc id goodputs) now goodput;
        Sim.Timeseries.add (List.assoc id cumulatives) now (float_of_int total))
      agents
  in
  ignore (Sim.Engine.every engine ~start:sample_period ~period:sample_period sample);
  Sim.Engine.run_until engine duration;
  let core_drops =
    List.fold_left (fun acc l -> acc + l.Net.Link.drops) 0 network.Network.core_links
  in
  {
    scheme = scheme_name scheme;
    network;
    rate_series = rates;
    goodput_series = goodputs;
    cumulative = cumulatives;
    core_drops;
    feedback_markers = driver.feedback ();
    early_drops = driver.early_drops ();
    mean_delays = List.map (fun (id, agent) -> (id, mean_delay agent)) agents;
    drops_by_flow = List.map (fun id -> (id, driver.drops_of_flow id)) ids;
    fault =
      Option.map
        (fun inj ->
          {
            injected_drops = Net.Fault.injected_drops inj;
            stripped_markers = Net.Fault.stripped_markers inj;
            lost_feedback = Net.Fault.feedback_losses inj;
            flaps = Net.Fault.flaps_fired inj;
          })
        injector;
  }

let mean_rate result ~flow ~from ~until =
  match List.assoc_opt flow result.rate_series with
  | None -> nan
  | Some ts -> (
    match Sim.Timeseries.window_mean ts ~from ~until with
    | Some m -> m
    | None -> nan)

let mean_rates result ~from ~until =
  List.map
    (fun f ->
      let id = f.Net.Flow.id in
      (id, mean_rate result ~flow:id ~from ~until))
    result.network.Network.flows

let jain ?flows result ~from ~until =
  let all = result.network.Network.flows in
  let selected =
    match flows with
    | None -> all
    | Some ids -> List.filter (fun f -> List.mem f.Net.Flow.id ids) all
  in
  let rates =
    Array.of_list
      (List.map (fun f -> mean_rate result ~flow:f.Net.Flow.id ~from ~until) selected)
  in
  let weights = Array.of_list (List.map (fun f -> f.Net.Flow.weight) selected) in
  Fairness.Metrics.jain_index ~rates ~weights
