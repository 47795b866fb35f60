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
  p99_delays : (int * float) list;
  drops_by_flow : (int * int) list;
  fault : fault_stats option;
}

(* Scheme-independent view of a deployment. *)
type driver = {
  start : int -> unit;
  stop : int -> unit;
  rate : int -> float;  (* 0 when not running *)
  delivered : int -> int;
  mean_delay : int -> float;
  p99_delay : int -> float;
  flow_drops : int -> int;
  backlog : int -> bool -> unit;
  feedback : unit -> int;
  early : unit -> int;
}

let corelite_driver ?fault ?plan params ~rng ~network ~floors =
  let flows =
    List.map
      (fun f ->
        let floor = Option.value ~default:0. (List.assoc_opt f.Net.Flow.id floors) in
        Corelite.Deployment.spec ~floor f)
      network.Network.flows
  in
  let d =
    Corelite.Deployment.build ?fault ~params ~rng ~topology:network.Network.topology
      ~flows ~core_links:network.Network.core_links ()
  in
  Option.iter (Corelite.Deployment.schedule_resets d) plan;
  {
    start = Corelite.Deployment.start_flow d;
    stop = Corelite.Deployment.stop_flow d;
    rate =
      (fun id ->
        let a = Corelite.Deployment.agent d id in
        if Corelite.Edge.running a then Corelite.Edge.rate a else 0.);
    delivered = (fun id -> Corelite.Edge.delivered (Corelite.Deployment.agent d id));
    mean_delay = (fun id -> Corelite.Edge.mean_delay (Corelite.Deployment.agent d id));
    p99_delay = (fun id -> Corelite.Edge.p99_delay (Corelite.Deployment.agent d id));
    flow_drops = Corelite.Deployment.drops_of_flow d;
    backlog =
      (fun id backlogged ->
        Corelite.Edge.set_backlogged (Corelite.Deployment.agent d id) backlogged);
    feedback = (fun () -> Corelite.Deployment.total_feedback d);
    early = (fun () -> 0);
  }

let csfq_driver ?attach_cores params ~rng ~network ~floors =
  let flows =
    List.map
      (fun f ->
        let floor = Option.value ~default:0. (List.assoc_opt f.Net.Flow.id floors) in
        Csfq.Deployment.spec ~floor f)
      network.Network.flows
  in
  let d =
    Csfq.Deployment.build ?attach_cores ~params ~rng
      ~topology:network.Network.topology ~flows
      ~core_links:network.Network.core_links ()
  in
  {
    start = Csfq.Deployment.start_flow d;
    stop = Csfq.Deployment.stop_flow d;
    rate =
      (fun id ->
        let a = Csfq.Deployment.agent d id in
        if Csfq.Edge.running a then Csfq.Edge.rate a else 0.);
    delivered = (fun id -> Csfq.Edge.delivered (Csfq.Deployment.agent d id));
    mean_delay = (fun id -> Csfq.Edge.mean_delay (Csfq.Deployment.agent d id));
    p99_delay = (fun id -> Csfq.Edge.p99_delay (Csfq.Deployment.agent d id));
    flow_drops = Csfq.Deployment.drops_of_flow d;
    backlog =
      (fun id backlogged ->
        Csfq.Edge.set_backlogged (Csfq.Deployment.agent d id) backlogged);
    feedback = (fun () -> 0);
    early =
      (fun () ->
        List.fold_left (fun acc c -> acc + Csfq.Core.early_drops c) 0
          (Csfq.Deployment.cores d));
  }

let run ~scheme ~network ?(seed = 42) ?rng ?fault ?trace ?(metrics = false)
    ?(sample_period = 1.) ?(floors = []) ?(bursty = [])
    ?(burst_distribution = Net.Onoff.Exponential) ~schedule ~duration () =
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Runner.run: duration must be positive and finite";
  let engine = network.Network.engine in
  (* Arm observability before the deployment is built so construction-
     time events (initial rate updates at the first Start) are caught.
     Recording is a pure observer: with [trace]/[metrics] omitted every
     instrumentation site stays behind a false guard and the run is
     byte-identical to an untraced one. *)
  (match trace with
  | Some spec -> Sim.Trace.apply (Sim.Engine.trace engine) spec
  | None -> ());
  let registry = Sim.Engine.metrics engine in
  if metrics then Sim.Metrics.set_enabled registry true;
  let rng = match rng with Some r -> r | None -> Sim.Rng.create seed in
  (* The injector draws only from the plan's own (seed, label)-derived
     substreams, so wiring it here perturbs nothing: with [fault]
     omitted (or a passive plan) the run is byte-identical to one
     without this code path. *)
  let injector =
    Option.map (fun plan -> Net.Fault.apply ~topology:network.Network.topology plan) fault
  in
  let driver =
    match scheme with
    | Corelite params ->
      corelite_driver ?fault:injector ?plan:fault params ~rng ~network ~floors
    | Csfq _ | Plain _ -> (
      (match fault with
      | Some plan when plan.Sim.Faultplan.resets <> [] ->
        (* Loss and flaps are scheme-agnostic link behaviour, but a
           router reset wipes scheme soft state, which only the
           Corelite deployment models. *)
        invalid_arg "Runner.run: router resets require the Corelite scheme"
      | Some _ | None -> ());
      match scheme with
      | Csfq params -> csfq_driver params ~rng ~network ~floors
      | Plain params -> csfq_driver ~attach_cores:false params ~rng ~network ~floors
      | Corelite _ -> assert false)
  in
  List.iter
    (fun (time, action) ->
      let act =
        match action with
        | Start id -> fun () -> driver.start id
        | Stop id -> fun () -> driver.stop id
      in
      ignore (Sim.Engine.schedule_at engine ~time act))
    schedule;
  List.iter
    (fun (id, on_mean, off_mean) ->
      ignore
        (Net.Onoff.start ~engine ~rng:(Sim.Rng.split rng)
           ~distribution:burst_distribution ~on_mean ~off_mean (driver.backlog id)))
    bursty;
  let ids = List.map (fun f -> f.Net.Flow.id) network.Network.flows in
  let series name = List.map (fun id -> (id, Sim.Timeseries.create ~name:(Printf.sprintf "%s%d" name id) ())) ids in
  let rates = series "rate-flow" in
  let goodputs = series "goodput-flow" in
  let cumulatives = series "cumulative-flow" in
  let previous_delivered = Hashtbl.create 32 in
  List.iter (fun id -> Hashtbl.replace previous_delivered id 0) ids;
  let m_samples =
    if Sim.Metrics.enabled registry then
      Some
        (Sim.Metrics.counter registry "runner.samples"
           ~help:"sampling ticks taken, one per sample_period")
    else None
  in
  let m_goodput =
    if Sim.Metrics.enabled registry then
      Some
        (Sim.Metrics.histogram registry "runner.goodput"
           ~help:"per-flow goodput samples, pkt/s, across all flows")
    else None
  in
  let sample () =
    let now = Sim.Engine.now engine in
    (match m_samples with Some c -> Sim.Metrics.incr c | None -> ());
    List.iter
      (fun id ->
        Sim.Timeseries.add (List.assoc id rates) now (driver.rate id);
        let total = driver.delivered id in
        let before = Hashtbl.find previous_delivered id in
        Hashtbl.replace previous_delivered id total;
        let goodput = float_of_int (total - before) /. sample_period in
        (match m_goodput with
        | Some h -> Sim.Metrics.observe h goodput
        | None -> ());
        Sim.Timeseries.add (List.assoc id goodputs) now goodput;
        Sim.Timeseries.add (List.assoc id cumulatives) now (float_of_int total))
      ids
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
    early_drops = driver.early ();
    mean_delays = List.map (fun id -> (id, driver.mean_delay id)) ids;
    p99_delays = List.map (fun id -> (id, driver.p99_delay id)) ids;
    drops_by_flow = List.map (fun id -> (id, driver.flow_drops id)) ids;
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
