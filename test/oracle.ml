(* Trace-oracle suite: replay figure workloads with the tracer armed
   and assert the paper's *dynamic* claims over the recorded event
   sequence — properties the end-state summary tables cannot see:

   - exactly one budget computation per 100 ms congestion epoch per
     core link (Section 3.2's epoch discipline);
   - feedback is emitted only while congested: every Feedback_emit
     follows an epoch whose budget Fn was positive, i.e. qavg above
     qthresh;
   - per-flow feedback counts at the bottleneck proportional to the
     advertised normalized rate bg(f)/w(f) (the selective-feedback
     claim behind weighted fairness), within 15%;
   - edge shaping conformance: packets injected at a flow's access
     link never exceed the allowed rate advertised between consecutive
     rate updates;
   - serial and pooled runs export byte-identical traces and metrics
     (per-scenario trace isolation).

   The figure runs are expensive (fig3 simulates 800 s), so each traced
   run is built lazily once and shared by its checks. *)

let qthresh = Corelite.Params.default.Corelite.Params.qthresh

let core_epoch = Corelite.Params.default.Corelite.Params.core_epoch

type traced = {
  result : Workload.Runner.result;
  events : Sim.Trace.event array;
}

let traced_run fspec tspec =
  let result = Workload.Figures.run ~trace:tspec fspec in
  let tr =
    Sim.Engine.trace result.Workload.Runner.network.Workload.Network.engine
  in
  (* Completeness first: every oracle below reasons over the full event
     sequence, so the ring must not have wrapped. *)
  Alcotest.(check int)
    "ring did not wrap (dropped_events = 0)" 0 (Sim.Trace.dropped_events tr);
  { result; events = Array.init (Sim.Trace.length tr) (Sim.Trace.get tr) }

(* fig3: the network-dynamics workload the paper's headline figure
   uses. Control-plane kinds only — the 800 s run generates ~115k of
   them, comfortably inside 2^18, while the per-packet kinds would need
   millions of slots. *)
let fig3 =
  lazy
    (traced_run
       (Workload.Figures.fig3 ())
       (Sim.Trace.spec ~capacity:(1 lsl 18) ~kinds:Sim.Trace.control_kinds ()))

(* fig5: short enough (80 s) to afford per-packet enqueues, which the
   shaping oracle needs. *)
let fig5 =
  lazy
    (traced_run
       (Workload.Figures.fig5 ())
       (Sim.Trace.spec ~capacity:(1 lsl 20)
          ~kinds:[ Sim.Trace.Enqueue; Sim.Trace.Rate_update ]
          ()))

let core_link_ids result =
  List.map
    (fun (l : Net.Link.t) -> l.Net.Link.id)
    result.Workload.Runner.network.Workload.Network.core_links

let flows_of result = result.Workload.Runner.network.Workload.Network.flows

let topology_of result =
  result.Workload.Runner.network.Workload.Network.topology

(* ---- Oracle 1: exactly one budget computation per epoch per link ---- *)

let test_epoch_cadence () =
  let { result; events } = Lazy.force fig3 in
  List.iter
    (fun link ->
      let times =
        Array.to_list events
        |> List.filter_map (fun (e : Sim.Trace.event) ->
               match e.Sim.Trace.kind with
               | Sim.Trace.Epoch when e.Sim.Trace.a = link ->
                 Some e.Sim.Trace.time
               | _ -> None)
      in
      let n = List.length times in
      (* 800 s at one computation per 100 ms epoch: allow the boundary
         tick to land either side of the horizon, nothing more. *)
      Alcotest.(check bool)
        (Printf.sprintf "link %d: ~8000 epoch computations (got %d)" link n)
        true
        (n >= 7995 && n <= 8001);
      let rec gaps = function
        | t1 :: (t2 :: _ as rest) ->
          let gap = t2 -. t1 in
          if Float.abs (gap -. core_epoch) > 1e-6 then
            Alcotest.failf
              "link %d: epoch gap %.9f at t=%.3f (expected %.3f): budget \
               computed more or less than once per epoch"
              link gap t1 core_epoch;
          gaps rest
        | _ -> ()
      in
      gaps times)
    (core_link_ids result)

(* ---- Oracle 2: no feedback while uncongested (qavg <= qthresh) ---- *)

let test_feedback_only_under_congestion () =
  let { result = _; events } = Lazy.force fig3 in
  let last_epoch = Hashtbl.create 8 in
  let checked = ref 0 in
  Array.iter
    (fun (e : Sim.Trace.event) ->
      match e.Sim.Trace.kind with
      | Sim.Trace.Epoch ->
        Hashtbl.replace last_epoch e.Sim.Trace.a (e.Sim.Trace.x, e.Sim.Trace.y)
      | Sim.Trace.Feedback_emit -> (
        incr checked;
        match Hashtbl.find_opt last_epoch e.Sim.Trace.a with
        | None ->
          Alcotest.failf "feedback on link %d at t=%.3f before any epoch"
            e.Sim.Trace.a e.Sim.Trace.time
        | Some (qavg, fn) ->
          if fn <= 0. then
            Alcotest.failf
              "feedback on link %d at t=%.3f but last budget Fn=%.3f"
              e.Sim.Trace.a e.Sim.Trace.time fn;
          if qavg <= qthresh then
            Alcotest.failf
              "feedback on link %d at t=%.3f but last qavg=%.2f <= \
               qthresh=%.1f"
              e.Sim.Trace.a e.Sim.Trace.time qavg qthresh)
      | _ -> ())
    events;
  Alcotest.(check bool)
    (Printf.sprintf "saw a meaningful number of feedback emissions (%d)"
       !checked)
    true (!checked > 1000)

(* ---- Oracle 3: feedback counts proportional to normalized rate ---- *)

(* Section 3's selective-feedback claim: markers for flow f reach the
   cores at rate bg(f) / (K1 w(f)), so over a steady-state window each
   flow's share of the selective feedback tracks its share of sum bg/w
   over the active flows. The right quantity is each flow's TOTAL
   feedback across the congested links it crosses: a flow throttled by
   two equally-congested links splits its feedback between them (each
   link sees it hovering at its running average half the time), but the
   combined count stays proportional to the advertised normalized rate
   regardless of how many congested hops the path has — that is exactly
   the property that makes multi-hop flows converge to the same bg/w as
   single-hop ones. *)
let test_feedback_proportionality () =
  let { result; events } = Lazy.force fig3 in
  let spec = Workload.Figures.fig3 () in
  List.iter
    (fun (phase : Workload.Figures.phase) ->
      let from_t = phase.Workload.Figures.from_t
      and until_t = phase.Workload.Figures.until_t in
      let active = phase.Workload.Figures.active in
      (* Total feedback per flow inside the window, across all links. *)
      let count = Hashtbl.create 64 in
      Array.iter
        (fun (e : Sim.Trace.event) ->
          match e.Sim.Trace.kind with
          | Sim.Trace.Feedback_emit
            when e.Sim.Trace.time >= from_t && e.Sim.Trace.time <= until_t ->
            let flow = e.Sim.Trace.b in
            Hashtbl.replace count flow
              (1 + Option.value ~default:0 (Hashtbl.find_opt count flow))
          | _ -> ())
        events;
      let fb id = Option.value ~default:0 (Hashtbl.find_opt count id) in
      (* Normalized rates measured from the same run's rate samples. *)
      let normalized =
        List.map
          (fun id ->
            let f = Workload.Network.flow result.Workload.Runner.network id in
            let bg =
              Workload.Runner.mean_rate result ~flow:id ~from:from_t
                ~until:until_t
            in
            (id, bg /. f.Net.Flow.weight))
          active
      in
      let nr_sum = List.fold_left (fun acc (_, nr) -> acc +. nr) 0. normalized in
      let fb_sum = List.fold_left (fun acc (id, _) -> acc + fb id) 0 normalized in
      Alcotest.(check bool)
        (Printf.sprintf "%s: window saw substantial feedback (%d)"
           phase.Workload.Figures.label fb_sum)
        true
        (fb_sum > 1000);
      List.iter
        (fun (id, nr) ->
          let nshare = nr /. nr_sum in
          let fshare = float_of_int (fb id) /. float_of_int fb_sum in
          if Float.abs (fshare -. nshare) > 0.15 *. nshare then
            Alcotest.failf
              "%s: flow %d feedback share %.4f vs normalized-rate share \
               %.4f (%d/%d feedbacks) — outside 15%%"
              phase.Workload.Figures.label id fshare nshare (fb id) fb_sum)
        normalized)
    spec.Workload.Figures.phases

(* ---- Oracle 4: edge shaping conformance ---- *)

(* Between consecutive rate updates the edge may inject at most
   rate * dt packets (+2: one emission already scheduled under the
   previous rate, one for the window-boundary rounding): the paced
   source must conform to the rate it advertises. Checked at each
   flow's access link — the first link of its path — which sees packets
   the instant the edge emits them. *)
let test_shaping_conformance () =
  let { result; events } = Lazy.force fig5 in
  let topology = topology_of result in
  let duration = (Workload.Figures.fig5 ()).Workload.Figures.duration in
  List.iter
    (fun (f : Net.Flow.t) ->
      let id = f.Net.Flow.id in
      let access =
        match Net.Flow.links f topology with
        | l :: _ -> l.Net.Link.id
        | [] -> Alcotest.failf "flow %d has no links" id
      in
      (* Windows: (time, new rate) changepoints for this flow. *)
      let updates =
        Array.to_list events
        |> List.filter_map (fun (e : Sim.Trace.event) ->
               match e.Sim.Trace.kind with
               | Sim.Trace.Rate_update when e.Sim.Trace.a = id ->
                 Some (e.Sim.Trace.time, e.Sim.Trace.x)
               | _ -> None)
      in
      Alcotest.(check bool)
        (Printf.sprintf "flow %d has rate updates (%d)" id
           (List.length updates))
        true
        (List.length updates > 10);
      let enqueues =
        Array.to_list events
        |> List.filter_map (fun (e : Sim.Trace.event) ->
               match e.Sim.Trace.kind with
               | Sim.Trace.Enqueue
                 when e.Sim.Trace.a = access && e.Sim.Trace.b = id ->
                 Some e.Sim.Trace.time
               | _ -> None)
      in
      let count_in lo hi =
        List.length (List.filter (fun t -> t > lo && t <= hi) enqueues)
      in
      let check_window t1 rate t2 =
        let n = count_in t1 t2 in
        let allowed = (rate *. (t2 -. t1)) +. 2. in
        if float_of_int n > allowed then
          Alcotest.failf
            "flow %d: %d packets in (%.3f, %.3f] exceeds advertised rate \
             %.1f pkt/s (max %.1f)"
            id n t1 t2 rate allowed
      in
      let rec walk = function
        | (t1, r1) :: ((t2, _) :: _ as rest) ->
          check_window t1 r1 t2;
          walk rest
        | [ (t1, r1) ] -> check_window t1 r1 duration
        | [] -> ()
      in
      walk updates)
    (flows_of result)

(* ---- Oracle 5: serial vs pooled trace/metrics exports ---- *)

let exports ~domains =
  let tspec =
    Sim.Trace.spec ~capacity:(1 lsl 18) ~kinds:Sim.Trace.control_kinds ()
  in
  let runs =
    Workload.Figures.run_all ~domains ~trace:tspec ~metrics:true
      [ Workload.Figures.fig3 (); Workload.Figures.fig5 () ]
  in
  List.map
    (fun ((spec : Workload.Figures.spec), (result : Workload.Runner.result)) ->
      let engine = result.Workload.Runner.network.Workload.Network.engine in
      ( spec.Workload.Figures.id,
        Sim.Trace.to_jsonl (Sim.Engine.trace engine),
        Workload.Csv.of_metrics (Sim.Engine.metrics engine) ))
    runs

let test_serial_vs_pooled () =
  let serial = exports ~domains:1 in
  let pooled = exports ~domains:2 in
  List.iter2
    (fun (id, jsonl_s, csv_s) (id', jsonl_p, csv_p) ->
      Alcotest.(check string) "same scenario order" id id';
      Alcotest.(check bool)
        (id ^ ": trace JSONL non-empty") true
        (String.length jsonl_s > 0);
      Alcotest.(check bool)
        (id ^ ": metrics CSV non-empty") true
        (String.length csv_s > 0);
      Alcotest.(check bool)
        (id ^ ": serial and pooled trace exports byte-identical") true
        (String.equal jsonl_s jsonl_p);
      Alcotest.(check bool)
        (id ^ ": serial and pooled metrics exports byte-identical") true
        (String.equal csv_s csv_p))
    serial pooled

(* ---- Oracle 6: trace isolation across pooled scenarios ---- *)

(* Every pooled job builds its own engine, and with it its own tracer;
   a scenario arming the tracer must never see another job's events.
   Running the same batch serially and on two domains interleaves the
   jobs differently, so any tracing state shared between jobs shows up
   as a byte difference between the two exports. *)
let test_pool_scenario_isolation () =
  let job label =
    Workload.Pool.job ~id:label (fun () ->
        let engine = Sim.Engine.create () in
        let network =
          Workload.Network.single_bottleneck ~engine
            ~weights:(fun i -> float_of_int i)
            3
        in
        let result =
          Workload.Runner.run
            ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
            ~network
            ~rng:(Sim.Rng.scenario ~seed:7 ~id:label)
            ~trace:
              (Sim.Trace.spec ~capacity:(1 lsl 16)
                 ~kinds:Sim.Trace.control_kinds ())
            ~schedule:
              (List.init 3 (fun i -> (0., Workload.Runner.Start (i + 1))))
            ~duration:30. ()
        in
        ignore result.Workload.Runner.core_drops;
        Sim.Trace.to_jsonl (Sim.Engine.trace engine))
  in
  let jobs = [ job "oracle/a"; job "oracle/b"; job "oracle/c" ] in
  let serial = Workload.Pool.map ~domains:1 jobs in
  let pooled = Workload.Pool.map ~domains:2 jobs in
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "scenario %d trace non-empty" i)
        true
        (String.length s > 0);
      Alcotest.(check bool)
        (Printf.sprintf "scenario %d: pooled trace = serial trace" i)
        true (String.equal s p))
    (List.combine serial pooled)

(* ---- Oracle 7: churn flow lifecycle ---- *)

(* A real churn run (Corelite under 10% transient churn, quick battery
   settings) with the lifecycle kinds and edge feedback receipts
   traced. Three properties:

   - every Flow_start is matched by exactly one Flow_end or
     Flow_expire (the drain ends whatever churn left running);
   - the process-wide Sim.Invariant flow ledger balances across the
     run: created = retired, nothing leaked;
   - no feedback is attributed to a retired flow — once a flow's
     Flow_end/Flow_expire appears in the event order, no later
     Feedback_recv may name it (the edge's [running] guard drops
     in-flight feedback toward retired state). *)
let churn =
  lazy
    (let engine = Sim.Engine.create () in
     Sim.Trace.apply (Sim.Engine.trace engine)
       (Sim.Trace.spec ~capacity:(1 lsl 18)
          ~kinds:
            (Sim.Trace.Feedback_recv :: Sim.Trace.lifecycle_kinds)
          ());
     let created0 = Sim.Invariant.flows_created () in
     let retired0 = Sim.Invariant.flows_retired () in
     let point =
       Workload.Churn.run_point ~engine ~quick:true
         ~scheme:Workload.Churn.Corelite ~variant:Workload.Churn.Dynamic ()
     in
     let tr = Sim.Engine.trace engine in
     Alcotest.(check int)
       "ring did not wrap (dropped_events = 0)" 0
       (Sim.Trace.dropped_events tr);
     ( point,
       Sim.Invariant.flows_created () - created0,
       Sim.Invariant.flows_retired () - retired0,
       Array.init (Sim.Trace.length tr) (Sim.Trace.get tr) ))

let test_churn_lifecycle_balance () =
  let point, _, _, events = Lazy.force churn in
  let starts = Hashtbl.create 64 and ends = Hashtbl.create 64 in
  let bump table id =
    Hashtbl.replace table id (1 + Option.value ~default:0 (Hashtbl.find_opt table id))
  in
  Array.iter
    (fun (e : Sim.Trace.event) ->
      match e.Sim.Trace.kind with
      | Sim.Trace.Flow_start -> bump starts e.Sim.Trace.a
      | Sim.Trace.Flow_end | Sim.Trace.Flow_expire -> bump ends e.Sim.Trace.a
      | _ -> ())
    events;
  Alcotest.(check int)
    "one Flow_start per honest arrival" point.Workload.Churn.arrivals
    (Hashtbl.length starts);
  Hashtbl.iter
    (fun id n ->
      if n <> 1 then Alcotest.failf "flow %d started %d times" id n;
      match Hashtbl.find_opt ends id with
      | Some 1 -> ()
      | Some n -> Alcotest.failf "flow %d retired %d times" id n
      | None -> Alcotest.failf "flow %d started but never ended nor expired" id)
    starts;
  Hashtbl.iter
    (fun id _ ->
      if not (Hashtbl.mem starts id) then
        Alcotest.failf "flow %d retired without a Flow_start" id)
    ends

let test_churn_ledger_balances () =
  let point, created, retired, _ = Lazy.force churn in
  Alcotest.(check int) "every arrival entered the ledger"
    point.Workload.Churn.arrivals created;
  Alcotest.(check int) "created = retired after the drain" created retired;
  Alcotest.(check int) "no leaked edge state" 0 point.Workload.Churn.leaked

let test_churn_no_feedback_after_retirement () =
  let _, _, _, events = Lazy.force churn in
  let retired = Hashtbl.create 64 in
  let feedbacks = ref 0 in
  Array.iter
    (fun (e : Sim.Trace.event) ->
      match e.Sim.Trace.kind with
      | Sim.Trace.Flow_end | Sim.Trace.Flow_expire ->
        Hashtbl.replace retired e.Sim.Trace.a e.Sim.Trace.time
      | Sim.Trace.Feedback_recv -> (
        incr feedbacks;
        match Hashtbl.find_opt retired e.Sim.Trace.a with
        | Some t_retired ->
          Alcotest.failf
            "feedback attributed to flow %d at t=%.3f after its retirement \
             at t=%.3f"
            e.Sim.Trace.a e.Sim.Trace.time t_retired
        | None -> ())
      | _ -> ())
    events;
  Alcotest.(check bool)
    (Printf.sprintf "the run actually exercised feedback (%d receipts)"
       !feedbacks)
    true (!feedbacks > 100)

(* ---- Scale oracles: the same dynamic claims on a generated fat-tree ----

   The epoch discipline and retirement guarantees must survive the
   scale refactor (flat flow tables, FIB-plane forwarding, per-path
   delay registration), so they are re-proved on a fat-tree k=8 with
   3000 flows and 25% early churn — hundreds of policed links instead
   of fig3's three. Control-plane kinds only: the whole point of the
   trace diet is that a 10^3-flow run fits a bounded ring while its
   per-packet volume would not. *)

let scale_capacity = 1 lsl 20

(* 10^4 flows oversubscribe every access link (78 flows per 500 pkt/s
   uplink) — fewer flows never congest within 8 s and the feedback
   oracles would hold vacuously. *)
let scale =
  lazy
    (let engine = Sim.Engine.create () in
     let result =
       Workload.Scale.run ~engine ~seed:42 ~label:"oracle/scale"
         ~graph:(Workload.Scale.Fattree 8) ~n_flows:10_000
         ~scheme:Workload.Scale.Corelite ~duration:8. ~end_fraction:0.25
         ~trace:
           (Sim.Trace.spec ~capacity:scale_capacity
              ~kinds:Sim.Trace.control_kinds ())
         ()
     in
     let tr = Sim.Engine.trace engine in
     Alcotest.(check int)
       "ring did not wrap (dropped_events = 0)" 0 (Sim.Trace.dropped_events tr);
     (result, Array.init (Sim.Trace.length tr) (Sim.Trace.get tr)))

let test_scale_epoch_cadence () =
  let result, events = Lazy.force scale in
  (* One pass over the trace, folding per-link epoch streams: count,
     and every consecutive gap exactly one core epoch. *)
  let per_link : (int, int * float) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun (e : Sim.Trace.event) ->
      match e.Sim.Trace.kind with
      | Sim.Trace.Epoch ->
        let link = e.Sim.Trace.a and t = e.Sim.Trace.time in
        (match Hashtbl.find_opt per_link link with
        | None -> ()
        | Some (_, last) ->
          if Float.abs (t -. last -. core_epoch) > 1e-6 then
            Alcotest.failf
              "link %d: epoch gap %.9f at t=%.3f (expected %.3f)" link
              (t -. last) last core_epoch);
        let n = match Hashtbl.find_opt per_link link with
          | None -> 0
          | Some (n, _) -> n
        in
        Hashtbl.replace per_link link (n + 1, t)
      | _ -> ())
    events;
  Alcotest.(check int)
    "every policed link computes budgets" result.Workload.Scale.n_links
    (Hashtbl.length per_link);
  Hashtbl.iter
    (fun link (n, _) ->
      (* 8 s at one computation per 100 ms: the boundary tick may land
         either side of the horizon. *)
      if n < 79 || n > 81 then
        Alcotest.failf "link %d: %d epoch computations over 8 s" link n)
    per_link

let test_scale_no_feedback_after_retirement () =
  let result, events = Lazy.force scale in
  let retired = Hashtbl.create 1024 in
  let feedbacks = ref 0 in
  Array.iter
    (fun (e : Sim.Trace.event) ->
      match e.Sim.Trace.kind with
      | Sim.Trace.Flow_end | Sim.Trace.Flow_expire ->
        Hashtbl.replace retired e.Sim.Trace.a e.Sim.Trace.time
      | Sim.Trace.Feedback_recv -> (
        incr feedbacks;
        match Hashtbl.find_opt retired e.Sim.Trace.a with
        | Some t_retired ->
          Alcotest.failf
            "feedback attributed to flow %d at t=%.3f after its retirement \
             at t=%.3f"
            e.Sim.Trace.a e.Sim.Trace.time t_retired
        | None -> ())
      | _ -> ())
    events;
  Alcotest.(check int)
    "the early-churn cohort retired" 2500 result.Workload.Scale.ended_early;
  Alcotest.(check bool)
    (Printf.sprintf "the run actually exercised feedback (%d receipts)"
       !feedbacks)
    true
    (!feedbacks > 100)

let test_scale_trace_diet () =
  let result, events = Lazy.force scale in
  Array.iter
    (fun (e : Sim.Trace.event) ->
      match e.Sim.Trace.kind with
      | Sim.Trace.Enqueue | Sim.Trace.Dequeue | Sim.Trace.Marker_attach
      | Sim.Trace.Marker_seen ->
        Alcotest.failf "per-packet kind recorded at t=%.3f under control_kinds"
          e.Sim.Trace.time
      | _ -> ())
    events;
  (* The diet's raison d'etre: the control-plane record stays inside a
     bounded ring while the event volume it elides — at least one
     engine event per packet hop — is several times larger. *)
  Alcotest.(check bool)
    (Printf.sprintf "control trace (%d) << engine events (%d)"
       (Array.length events) result.Workload.Scale.events)
    true
    (Array.length events * 4 < result.Workload.Scale.events
    && Array.length events <= scale_capacity)

let () =
  Alcotest.run "oracle"
    [
      ( "fig3-trace",
        [
          Alcotest.test_case "one budget computation per epoch per link"
            `Slow test_epoch_cadence;
          Alcotest.test_case "no feedback when qavg <= qthresh" `Slow
            test_feedback_only_under_congestion;
          Alcotest.test_case "feedback proportional to normalized rate" `Slow
            test_feedback_proportionality;
        ] );
      ( "fig5-trace",
        [
          Alcotest.test_case "edges conform to their advertised rate" `Slow
            test_shaping_conformance;
        ] );
      ( "scale-trace",
        [
          Alcotest.test_case
            "one budget computation per epoch per core link (fat-tree k=8)"
            `Slow test_scale_epoch_cadence;
          Alcotest.test_case "no feedback toward retired flows" `Slow
            test_scale_no_feedback_after_retirement;
          Alcotest.test_case "control_kinds trace diet stays bounded" `Slow
            test_scale_trace_diet;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "serial = pooled trace and metrics exports"
            `Slow test_serial_vs_pooled;
          Alcotest.test_case "pooled scenario traces are isolated" `Slow
            test_pool_scenario_isolation;
        ] );
      ( "churn-trace",
        [
          Alcotest.test_case "every flow-start matched by end or expiry"
            `Slow test_churn_lifecycle_balance;
          Alcotest.test_case "flow ledger balances, nothing leaks" `Slow
            test_churn_ledger_balances;
          Alcotest.test_case "no feedback attributed to a retired flow"
            `Slow test_churn_no_feedback_after_retirement;
        ] );
    ]
