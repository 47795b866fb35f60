(* The churn battery: flow churn, flash crowds and adversarial heavy
   hitters over a shared bottleneck, judged by time-windowed fairness
   (Fairness.Windowed) instead of steady-state convergence. Each point
   replays one deterministic arrival plan (Arrivals) against one scheme
   and measures windowed Jain, so "Corelite vs CSFQ vs DRR under the
   same trace" is a like-for-like comparison, and the static variant of
   the same pipeline is the baseline the robustness gates normalize
   against. *)

type scheme = Scale.scheme = Corelite | Csfq | Drr

type variant = Static | Dynamic | Adversarial | Faulty

let variant_name = function
  | Static -> "static"
  | Dynamic -> "churn"
  | Adversarial -> "adversary"
  | Faulty -> "churn+faults"

type point = {
  label : string;
  scheme : string;
  variant : string;
  arrivals : int;
  completed : int;
  expired : int;
  leaked : int;
  windowed_jain : float;
  goodput : float;
  adversary_share : float;
  core_drops : int;
  injected_drops : int;
}

let default_fault_seed = Chaos.default_fault_seed

(* Tuning shared by every point so variants differ only in workload.
   Base population: 8 long-lived elastic flows with mixed weights; the
   churn variants add transient arrivals carrying [churn_fraction] of
   the bottleneck capacity in offered load ("10% churn"), a diurnal
   intensity curve and a mid-run flash crowd. *)
(* lint: domain-ok -- read-only weight table, never written *)
let base_weights = [| 1.; 1.; 2.; 1.; 3.; 1.; 2.; 1. |]

let n_base = Array.length base_weights

let adversary_id = n_base + 1

let first_transient_id = adversary_id + 1

let churn_fraction = 0.1

let expiry_timeout = 5.

let expiry_period = 2.

let poll_period = 0.25

let sample_period = 0.5

(* One churn run. All randomness descends from (seed, label) scenario
   streams — the arrival plan, the deployment's epoch offsets and each
   on/off controller get their own labelled substream — so a point is a
   pure function of its parameters, byte-identical on any worker. *)
let run_point ?engine ?(seed = 42) ?(quick = false)
    ?(fault_seed = default_fault_seed) ~scheme ~variant () =
  let duration = if quick then 40. else 80. in
  let from = duration /. 4. in
  let window = 4. in
  let label =
    Printf.sprintf "churn/%s/%s%s" (Scale.scheme_name scheme) (variant_name variant)
      (if quick then "/quick" else "")
  in
  let engine =
    match engine with Some e -> e | None -> Sim.Engine.create ()
  in
  (* Transient arrivals: only the dynamic variants have any. The
     capacity estimate here only tunes the arrival intensity; the
     authoritative figure is re-read from the built bottleneck below. *)
  let capacity_pps =
    Network.default_bandwidth /. float_of_int (8 * Net.Packet.default_size)
  in
  let profile =
    {
      Arrivals.default with
      Arrivals.rate = churn_fraction *. capacity_pps /. Arrivals.default.Arrivals.mean_size;
      diurnal = Some { Arrivals.period = duration /. 2.; depth = 0.3 };
      flash =
        Some { Arrivals.at = duration /. 2.; duration = duration /. 10.; boost = 4. };
    }
  in
  let transients =
    match variant with
    | Static -> []
    | Dynamic | Adversarial | Faulty ->
      Arrivals.generate ~seed ~label:(label ^ "/arrivals") ~profile ~horizon:duration
        ~first_id:first_transient_id ()
  in
  let base =
    List.init n_base (fun i ->
        {
          Arrivals.id = i + 1;
          arrival = 0.;
          size = 0;
          weight = base_weights.(i);
          kind = Arrivals.Elastic;
        })
  in
  let honest = base @ transients in
  let with_adversary = match variant with Adversarial -> true | _ -> false in
  let specs =
    List.map (fun f -> (f.Arrivals.id, f.Arrivals.weight, 1, 2)) honest
    @ (if with_adversary then [ (adversary_id, 1., 1, 2) ] else [])
  in
  let weight_of =
    let table = Hashtbl.create 64 in
    List.iter (fun (id, w, _, _) -> Hashtbl.replace table id w) specs;
    fun id -> Option.value ~default:1. (Hashtbl.find_opt table id)
  in
  let core_qdisc =
    match scheme with
    | Drr -> Some (fun () -> Net.Qdisc.drr ~weight:weight_of ~capacity:40 ())
    | Corelite | Csfq -> None
  in
  let network = Network.chain ~engine ?core_qdisc ~cores:2 ~specs () in
  let capacity_pps =
    match network.Network.core_links with
    | link :: _ -> Net.Link.capacity_pps link
    | [] -> assert false
  in
  (* Fault plan composition: the injector is installed before the first
     arrival is scheduled, so a faulty churn run replays byte-
     identically — the plan's draws descend from (fault_seed, label)
     and the workload's from (seed, label), never interleaved. *)
  let fault_plan =
    match variant with
    | Faulty ->
      let link_faults =
        List.map
          (fun link ->
            Sim.Faultplan.link_fault
              ~loss:(Sim.Faultplan.Bernoulli 0.02)
              ~target:Sim.Faultplan.All_packets ~feedback_loss:0.05
              link.Net.Link.name)
          network.Network.core_links
      in
      Some (Sim.Faultplan.make ~label ~seed:fault_seed ~link_faults ())
    | Static | Dynamic | Adversarial -> None
  in
  let injector =
    Option.map (Net.Fault.apply ~topology:network.Network.topology) fault_plan
  in
  let driver =
    Runner.deploy ~fault:injector
      (match scheme with
      | Corelite -> Runner.Corelite Chaos.recovery_params
      | Csfq -> Runner.Csfq Csfq.Params.default
      | Drr -> Runner.Plain Csfq.Params.default)
      ~rng:(Sim.Rng.scenario ~seed ~id:(label ^ "/deploy"))
      ~network ~flows:[]
  in
  (* Per-flow bookkeeping the lifecycle events maintain. *)
  let handles : (int, Runner.agent) Hashtbl.t = Hashtbl.create 64 in
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let onoffs : (int, Net.Onoff.t) Hashtbl.t = Hashtbl.create 16 in
  let cumulative =
    List.map
      (fun f ->
        ( f.Arrivals.id,
          f.Arrivals.weight,
          Sim.Timeseries.create () ))
      honest
  in
  let arrivals_seen = ref 0 in
  let completed = ref 0 in
  let expired = ref 0 in
  let stop_onoff id =
    match Hashtbl.find_opt onoffs id with
    | Some o ->
      Net.Onoff.stop o;
      Hashtbl.remove onoffs id
    | None -> ()
  in
  List.iter
    (fun f ->
      let id = f.Arrivals.id in
      Sim.Engine.schedule_at engine ~time:f.Arrivals.arrival (fun () ->
          let flow = Network.flow network id in
          let h = driver.add_flow ~size:f.Arrivals.size flow in
          Hashtbl.replace handles id h;
          if f.Arrivals.size > 0 then Hashtbl.replace sizes id f.Arrivals.size;
          incr arrivals_seen;
          match f.Arrivals.kind with
          | Arrivals.Elastic -> ()
          | Arrivals.Onoff { on_mean; off_mean; shape } ->
            let rng =
              Sim.Rng.scenario ~seed ~id:(Printf.sprintf "%s/onoff/%d" label id)
            in
            Hashtbl.replace onoffs id
              (Net.Onoff.start ~engine ~rng ~distribution:(Net.Onoff.Pareto shape)
                 ~on_mean ~off_mean (Runner.set_backlogged h))))
    honest;
  (* Completion poll: a sized flow ends when it has sent its size. The
     sweep runs in flow-id order so lifecycle trace events are ordered
     identically on every replay. *)
  let poll () =
    let due =
      Hashtbl.fold
        (fun id size acc ->
          if not (driver.has_flow id) then `Gone id :: acc
          else
            match Hashtbl.find_opt handles id with
            | Some h when Runner.sent h >= size -> `Done id :: acc
            | Some _ | None -> acc)
        sizes []
      |> List.sort (fun a b ->
             let id = function `Gone id | `Done id -> id in
             compare (id a) (id b))
    in
    List.iter
      (fun d ->
        match d with
        | `Done id ->
          driver.end_flow id;
          incr completed;
          stop_onoff id;
          Hashtbl.remove sizes id
        | `Gone id ->
          (* expired by the soft-state sweep before completing *)
          stop_onoff id;
          Hashtbl.remove sizes id)
      due
  in
  ignore (Sim.Engine.every engine ~start:poll_period ~period:poll_period poll);
  (* Soft-state expiry sweep: idle edge state ages out. *)
  ignore
    (Sim.Engine.every engine ~start:expiry_period ~period:expiry_period (fun () ->
         expired := !expired + driver.expire_idle ~timeout:expiry_timeout));
  (* Cumulative delivered samples feed the windowed fairness metrics.
     Handles outlive retirement, so an ended flow's series goes flat
     instead of vanishing. *)
  let adversary_cumulative = Sim.Timeseries.create () in
  let adversary =
    if with_adversary then begin
      let total_weight =
        List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0. specs
      in
      let fair_share = capacity_pps /. total_weight in
      (* Burst at 4x the fair share, average at 0.8x: under any
         long-timescale detection threshold set at the share. *)
      Some
        (Adversary.attach ~network ~flow:adversary_id ~peak:(4. *. fair_share)
           ~duty:0.2 ~period:2.
           ~corelite_markers:(match scheme with Corelite -> true | _ -> false)
           ())
    end
    else None
  in
  let sample () =
    let now = Sim.Engine.now engine in
    List.iter
      (fun (id, _, ts) ->
        match Hashtbl.find_opt handles id with
        | Some h -> Sim.Timeseries.add ts now (float_of_int (Runner.delivered h))
        | None -> ())
      cumulative;
    match adversary with
    | Some adv ->
      Sim.Timeseries.add adversary_cumulative now
        (float_of_int (Adversary.delivered adv))
    | None -> ()
  in
  ignore (Sim.Engine.every engine ~start:sample_period ~period:sample_period sample);
  Sim.Engine.run_until engine duration;
  (* Drain: every flow still holding edge state is ended explicitly, so
     a leak-free run finishes with an empty table — [leaked] is what
     remains and the ledger oracle pins it to zero. *)
  Option.iter Adversary.stop adversary;
  List.iter
    (fun (id, _, _) -> if driver.has_flow id then driver.end_flow id)
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) cumulative);
  Hashtbl.iter (fun _ o -> Net.Onoff.stop o) onoffs;
  let leaked = driver.live_flows () in
  let span = duration -. from in
  let delivered_in_window ts =
    Option.value ~default:0. (Sim.Timeseries.value_at ts duration)
    -. Option.value ~default:0. (Sim.Timeseries.value_at ts from)
  in
  let goodput =
    List.fold_left (fun acc (_, _, ts) -> acc +. delivered_in_window ts) 0. cumulative
    /. span
  in
  let windowed_jain =
    (* Gate population: the persistent base flows. Transients are the
       offered load — a flow alive for a sliver of a window registers a
       tiny windowed rate and would read as unfairness no scheme caused;
       the gate asks whether churn, the flash crowd or the adversary
       disturb the share delivered to ongoing traffic. *)
    Fairness.Windowed.mean_jain
      ~flows:
        (List.filter_map
           (fun (id, w, ts) -> if id <= n_base then Some (w, ts) else None)
           cumulative)
      ~from ~until:duration ~window
  in
  let adversary_share =
    if with_adversary then delivered_in_window adversary_cumulative /. span /. capacity_pps
    else 0.
  in
  {
    label;
    scheme = Scale.scheme_name scheme;
    variant = variant_name variant;
    arrivals = !arrivals_seen;
    completed = !completed;
    expired = !expired;
    leaked;
    windowed_jain;
    goodput;
    adversary_share;
    core_drops =
      List.fold_left
        (fun acc l -> acc + l.Net.Link.drops)
        0 network.Network.core_links;
    injected_drops =
      (match injector with Some i -> Net.Fault.injected_drops i | None -> 0);
  }

let point_job ?seed ?quick ?fault_seed ~scheme ~variant () =
  let label =
    Printf.sprintf "churn/%s/%s" (Scale.scheme_name scheme) (variant_name variant)
  in
  Pool.job ~id:label (fun () -> run_point ?seed ?quick ?fault_seed ~scheme ~variant ())

let variants = [ Static; Dynamic; Adversarial; Faulty ]

let schemes = [ Corelite; Csfq; Drr ]

let jobs ?seed ?quick ?fault_seed () =
  List.map
    (fun scheme ->
      ( Scale.scheme_name scheme,
        List.map (fun variant -> point_job ?seed ?quick ?fault_seed ~scheme ~variant ()) variants
      ))
    schemes

let all ?domains ?seed ?quick ?fault_seed () =
  Pool.map_groups ?domains (jobs ?seed ?quick ?fault_seed ())

let csv_of_points points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "label,scheme,variant,arrivals,completed,expired,leaked,windowed_jain,goodput,adversary_share,core_drops,injected_drops\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%d,%d,%d,%d,%.6f,%.3f,%.6f,%d,%d\n" p.label p.scheme
           p.variant p.arrivals p.completed p.expired p.leaked p.windowed_jain
           p.goodput p.adversary_share p.core_drops p.injected_drops))
    points;
  Buffer.contents buf

let csv_of_groups groups =
  String.concat "" (List.map (fun (_, points) -> csv_of_points points) groups)

(* The robustness gate: within one scheme's group, each dynamic
   variant's windowed Jain must stay within [ratio] of the static
   baseline's. *)
let gate ~ratio points =
  match List.find_opt (fun p -> String.equal p.variant "static") points with
  | None -> invalid_arg "Churn.gate: no static baseline point"
  | Some baseline ->
    List.filter_map
      (fun p ->
        if String.equal p.variant "static" then None
        else
          Some
            ( p.variant,
              p.windowed_jain,
              baseline.windowed_jain,
              p.windowed_jain >= ratio *. baseline.windowed_jain ))
      points

let pp_points ppf (name, points) =
  Format.fprintf ppf "@[<v>-- churn: %s@," name;
  List.iter
    (fun p ->
      Format.fprintf ppf
        "   %-14s arrivals=%3d done=%3d expired=%3d leaked=%d jain=%.4f \
         goodput=%7.1f adv=%.3f drops=%5d@,"
        p.variant p.arrivals p.completed p.expired p.leaked p.windowed_jain p.goodput
        p.adversary_share p.core_drops)
    points;
  Format.fprintf ppf "@]"
