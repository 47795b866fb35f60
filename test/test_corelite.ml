(* Tests for the Corelite mechanisms: marker injection, congestion
   estimation, both feedback selectors, the edge agent, the per-link
   core logic, and end-to-end convergence. *)

let check_float = Alcotest.(check (float 1e-9))

let check_float_eps eps = Alcotest.(check (float eps))

let marker ?(edge = 1) ?(flow = 1) rn =
  { Net.Packet.edge_id = edge; flow_id = flow; normalized_rate = rn }

(* A packet carrying that marker, as the selectors observe it. *)
let marked ?edge ?(flow = 1) rn =
  Net.Packet.make ~id:0 ~flow ~marker:(marker ?edge ~flow rn) ~created:0. ()

(* ------------------------------------------------------------------ *)
(* Params *)

let test_marker_spacing () =
  let p = Corelite.Params.default in
  Alcotest.(check int) "w=1" 1 (Corelite.Params.marker_spacing p ~weight:1.);
  Alcotest.(check int) "w=2" 2 (Corelite.Params.marker_spacing p ~weight:2.);
  Alcotest.(check int) "w=3" 3 (Corelite.Params.marker_spacing p ~weight:3.);
  let p2 = { p with Corelite.Params.k1 = 2. } in
  Alcotest.(check int) "k1=2 w=3" 6 (Corelite.Params.marker_spacing p2 ~weight:3.);
  let p_half = { p with Corelite.Params.k1 = 0.25 } in
  Alcotest.(check int) "never below 1" 1 (Corelite.Params.marker_spacing p_half ~weight:1.)

let test_marker_spacing_rejects_bad_weight () =
  Alcotest.check_raises "weight 0"
    (Invalid_argument "Params.marker_spacing: weight must be positive") (fun () ->
      ignore (Corelite.Params.marker_spacing Corelite.Params.default ~weight:0.))

(* ------------------------------------------------------------------ *)
(* Congestion (Fn) *)

let test_fn_zero_below_threshold () =
  check_float "below" 0.
    (Corelite.Congestion.markers_needed ~mu:50. ~qavg:5. ~qthresh:8. ~k:0.005);
  check_float "at threshold" 0.
    (Corelite.Congestion.markers_needed ~mu:50. ~qavg:8. ~qthresh:8. ~k:0.005)

let test_fn_mm1_term () =
  (* k = 0 leaves only the M/M/1 excess term. *)
  let fn = Corelite.Congestion.markers_needed ~mu:50. ~qavg:12. ~qthresh:8. ~k:0. in
  let expected = 50. *. ((12. /. 13.) -. (8. /. 9.)) in
  check_float "M/M/1 excess" expected fn

let test_fn_cubic_term () =
  let base = Corelite.Congestion.markers_needed ~mu:50. ~qavg:12. ~qthresh:8. ~k:0. in
  let with_k =
    Corelite.Congestion.markers_needed ~mu:50. ~qavg:12. ~qthresh:8. ~k:0.01
  in
  check_float "cubic adds k*(q-qt)^3" (base +. (0.01 *. 64.)) with_k

(* The cubic correction at the congestion boundary qavg = qthresh:
   both terms vanish exactly at the threshold, and the budget rises
   continuously (no jump) as qavg crosses it — the cubic term grows as
   eps^3, so just above threshold the M/M/1 term dominates. *)
let test_fn_cubic_boundary () =
  let t = Corelite.Congestion.make (Corelite.Congestion.Mm1_cubic 0.005) in
  check_float "exactly at threshold" 0.
    (Corelite.Congestion.budget t ~mu:50. ~qavg:8. ~qthresh:8.);
  let eps = 1e-6 in
  let just_above = Corelite.Congestion.budget t ~mu:50. ~qavg:(8. +. eps) ~qthresh:8. in
  Alcotest.(check bool) "continuous from above" true
    (just_above > 0. && just_above < 1e-4);
  (* At qavg = qthresh + 2 the cubic adds exactly k * 8 over the pure
     M/M/1 budget. *)
  let base = Corelite.Congestion.markers_needed ~mu:50. ~qavg:10. ~qthresh:8. ~k:0. in
  check_float "cubic increment" (base +. (0.005 *. 8.))
    (Corelite.Congestion.budget t ~mu:50. ~qavg:10. ~qthresh:8.)

(* qavg comes from router soft state that faults can corrupt. Release
   builds clamp garbage to "uncongested"; debug builds (invariant
   auditing on, as in this suite) raise at the source. *)
let test_budget_clamps_bad_qavg_when_released () =
  Sim.Invariant.set_default false;
  Fun.protect
    ~finally:(fun () -> Sim.Invariant.set_default true)
    (fun () ->
      let t = Corelite.Congestion.make (Corelite.Congestion.Mm1_cubic 0.005) in
      List.iter
        (fun qavg ->
          check_float "clamped to uncongested" 0.
            (Corelite.Congestion.budget t ~mu:50. ~qavg ~qthresh:8.))
        [ Float.nan; Float.neg_infinity; Float.infinity; -3. ])

let test_budget_raises_on_bad_qavg_in_debug () =
  let t = Corelite.Congestion.make (Corelite.Congestion.Mm1_cubic 0.005) in
  List.iter
    (fun qavg ->
      Alcotest.check_raises "Violation"
        (Sim.Invariant.Violation
           (Printf.sprintf "Congestion.budget: qavg %h is not finite and non-negative"
              qavg))
        (fun () -> ignore (Corelite.Congestion.budget t ~mu:50. ~qavg ~qthresh:8.)))
    [ Float.nan; -1. ]

let test_budget_rejects_negative_inputs () =
  let t = Corelite.Congestion.make (Corelite.Congestion.Mm1_cubic 0.005) in
  Alcotest.check_raises "negative mu" (Invalid_argument "Congestion.budget: negative input")
    (fun () -> ignore (Corelite.Congestion.budget t ~mu:(-1.) ~qavg:0. ~qthresh:8.));
  Alcotest.check_raises "negative qthresh"
    (Invalid_argument "Congestion.budget: negative input") (fun () ->
      ignore (Corelite.Congestion.budget t ~mu:50. ~qavg:0. ~qthresh:(-8.)))

let test_congestion_reset_forgets_smoothed_queue () =
  let t =
    Corelite.Congestion.make
      (Corelite.Congestion.Ewma_threshold { gain = 1.0; scale = 1. })
  in
  (* gain 1: the EWMA is just the last qavg. 20 packets -> budget 12. *)
  check_float "congested" 12. (Corelite.Congestion.budget t ~mu:50. ~qavg:20. ~qthresh:8.);
  Corelite.Congestion.reset t;
  (* History forgotten: a quiet epoch after the reset reads as quiet. *)
  check_float "quiet after reset" 0.
    (Corelite.Congestion.budget t ~mu:50. ~qavg:0. ~qthresh:8.)

let test_fn_mm1_arrival_rate () =
  check_float "q=8" (50. *. 8. /. 9.) (Corelite.Congestion.mm1_arrival_rate ~mu:50. ~q:8.);
  Alcotest.check_raises "negative"
    (Invalid_argument "Congestion.mm1_arrival_rate: negative input") (fun () ->
      ignore (Corelite.Congestion.mm1_arrival_rate ~mu:(-1.) ~q:0.))

let prop_fn_monotone_in_qavg =
  QCheck.Test.make ~name:"Fn is nondecreasing in qavg" ~count:200
    QCheck.(pair (float_range 0. 40.) (float_range 0. 10.))
    (fun (qavg, delta) ->
      let fn q = Corelite.Congestion.markers_needed ~mu:50. ~qavg:q ~qthresh:8. ~k:0.005 in
      fn (qavg +. delta) >= fn qavg -. 1e-9)

let prop_fn_nonnegative =
  QCheck.Test.make ~name:"Fn is nonnegative" ~count:200
    QCheck.(float_range 0. 100.)
    (fun qavg ->
      Corelite.Congestion.markers_needed ~mu:50. ~qavg ~qthresh:8. ~k:0.005 >= 0.)

(* ------------------------------------------------------------------ *)
(* Cache selector *)

let test_cache_occupancy_and_wrap () =
  let c = Corelite.Cache_selector.create ~capacity:4 ~rng:(Sim.Rng.create 1) in
  Alcotest.(check int) "empty" 0 (Corelite.Cache_selector.occupancy c);
  for i = 1 to 3 do
    Corelite.Cache_selector.observe c (marked ~flow:i 10.)
  done;
  Alcotest.(check int) "partial" 3 (Corelite.Cache_selector.occupancy c);
  for i = 4 to 10 do
    Corelite.Cache_selector.observe c (marked ~flow:i 10.)
  done;
  Alcotest.(check int) "capped at capacity" 4 (Corelite.Cache_selector.occupancy c)

let test_cache_empty_select () =
  let c = Corelite.Cache_selector.create ~capacity:4 ~rng:(Sim.Rng.create 1) in
  Alcotest.(check (list int)) "no markers" []
    (List.map
       (fun m -> m.Net.Packet.flow_id)
       (Corelite.Cache_selector.select c ~fn:3.))

let test_cache_select_count () =
  let c = Corelite.Cache_selector.create ~capacity:16 ~rng:(Sim.Rng.create 2) in
  for i = 1 to 16 do
    Corelite.Cache_selector.observe c (marked ~flow:i 10.)
  done;
  Alcotest.(check int) "integral budget" 5
    (List.length (Corelite.Cache_selector.select c ~fn:5.));
  (* Fractional budget: expected count = fn; check the long-run mean. *)
  let total = ref 0 in
  for _ = 1 to 2000 do
    total := !total + List.length (Corelite.Cache_selector.select c ~fn:1.5)
  done;
  check_float_eps 0.1 "fractional expectation" 1.5 (float_of_int !total /. 2000.)

let test_cache_proportional_feedback () =
  (* Flow 1 contributes twice the markers of flow 2: its expected share
     of feedback is 2/3 — the weighted-fairness property of the cache. *)
  let c = Corelite.Cache_selector.create ~capacity:300 ~rng:(Sim.Rng.create 3) in
  for i = 0 to 299 do
    let flow = if i mod 3 < 2 then 1 else 2 in
    Corelite.Cache_selector.observe c (marked ~flow 10.)
  done;
  let count1 = ref 0 and total = ref 0 in
  for _ = 1 to 500 do
    List.iter
      (fun m ->
        incr total;
        if m.Net.Packet.flow_id = 1 then incr count1)
      (Corelite.Cache_selector.select c ~fn:4.)
  done;
  check_float_eps 0.04 "2:1 marker ratio -> 2/3 of feedback" (2. /. 3.)
    (float_of_int !count1 /. float_of_int !total)

let test_cache_rejects_bad_args () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Cache_selector.create: capacity must be positive") (fun () ->
      ignore (Corelite.Cache_selector.create ~capacity:0 ~rng:(Sim.Rng.create 1)));
  let c = Corelite.Cache_selector.create ~capacity:1 ~rng:(Sim.Rng.create 1) in
  Alcotest.check_raises "negative fn"
    (Invalid_argument "Cache_selector.select: negative budget") (fun () ->
      ignore (Corelite.Cache_selector.select c ~fn:(-1.)))

(* ------------------------------------------------------------------ *)
(* Stateless selector *)

let mk_stateless ?(rav_gain = 0.1) ?(wav_gain = 1.) ?(pw_cap = 1.) seed =
  Corelite.Stateless_selector.create ~rav_gain ~wav_gain ~pw_cap
    ~rng:(Sim.Rng.create seed)

let test_stateless_idle_without_budget () =
  let s = mk_stateless 1 in
  Alcotest.(check int) "no budget, no feedback" 0
    (Corelite.Stateless_selector.observe s (marked 10.));
  check_float "pw stays 0" 0. (Corelite.Stateless_selector.pw s)

let test_stateless_rav_tracks_labels () =
  let s = mk_stateless ~rav_gain:1. 1 in
  ignore (Corelite.Stateless_selector.observe s (marked 10.));
  check_float "rav equals last with gain 1" 10. (Corelite.Stateless_selector.rav s);
  ignore (Corelite.Stateless_selector.observe s (marked 30.));
  check_float "tracks" 30. (Corelite.Stateless_selector.rav s)

let test_stateless_pw_arming () =
  let s = mk_stateless 1 in
  (* 10 markers in the epoch; budget 5 -> pw = 0.5. *)
  for _ = 1 to 10 do
    ignore (Corelite.Stateless_selector.observe s (marked 10.))
  done;
  Corelite.Stateless_selector.on_epoch s ~fn:5.;
  check_float "pw = fn/wav" 0.5 (Corelite.Stateless_selector.pw s);
  Corelite.Stateless_selector.on_epoch s ~fn:0.;
  check_float "disarmed when uncongested" 0. (Corelite.Stateless_selector.pw s)

let test_stateless_pw_cap () =
  let s = mk_stateless ~pw_cap:2. 1 in
  for _ = 1 to 4 do
    ignore (Corelite.Stateless_selector.observe s (marked 10.))
  done;
  Corelite.Stateless_selector.on_epoch s ~fn:100.;
  check_float "capped" 2. (Corelite.Stateless_selector.pw s)

let test_stateless_selects_only_above_average () =
  let s = mk_stateless ~rav_gain:0.05 7 in
  (* Establish rav around 20 from a 10/30 mix. *)
  for _ = 1 to 200 do
    ignore (Corelite.Stateless_selector.observe s (marked ~flow:1 10.));
    ignore (Corelite.Stateless_selector.observe s (marked ~flow:2 30.))
  done;
  Corelite.Stateless_selector.on_epoch s ~fn:50.;
  let low = ref 0 and high = ref 0 in
  for _ = 1 to 400 do
    let c1 = Corelite.Stateless_selector.observe s (marked ~flow:1 10.) in
    let c2 = Corelite.Stateless_selector.observe s (marked ~flow:2 30.) in
    low := !low + c1;
    high := !high + c2
  done;
  Alcotest.(check int) "below-average flow untouched" 0 !low;
  Alcotest.(check bool) "above-average flow throttled" true (!high > 0)

let test_stateless_deficit_swaps () =
  (* With pw = 1 every marker is selected; ineligible ones build deficit
     which eligible markers repay on top of their own selection. *)
  let s = mk_stateless ~rav_gain:0.5 11 in
  ignore (Corelite.Stateless_selector.observe s (marked 100.));
  (* rav = 100 *)
  for _ = 1 to 10 do
    ignore (Corelite.Stateless_selector.observe s (marked 100.))
  done;
  Corelite.Stateless_selector.on_epoch s ~fn:1000.;
  (* pw capped at 1. Low marker (rn 0 < rav): selected, not sent. *)
  Alcotest.(check int) "ineligible buffered" 0
    (Corelite.Stateless_selector.observe s (marked 0.));
  Alcotest.(check bool) "deficit grew" true (Corelite.Stateless_selector.deficit s >= 1)

let test_stateless_deficit_resets_each_epoch () =
  let s = mk_stateless ~rav_gain:0.5 13 in
  ignore (Corelite.Stateless_selector.observe s (marked 100.));
  Corelite.Stateless_selector.on_epoch s ~fn:10.;
  ignore (Corelite.Stateless_selector.observe s (marked 0.));
  Alcotest.(check bool) "deficit positive" true (Corelite.Stateless_selector.deficit s > 0);
  Corelite.Stateless_selector.on_epoch s ~fn:10.;
  Alcotest.(check int) "reset" 0 (Corelite.Stateless_selector.deficit s)

let test_stateless_expected_feedback_rate () =
  (* All markers above-average-or-equal: expected feedback per epoch
     approximately equals fn. *)
  let s = mk_stateless ~rav_gain:0.9 17 in
  for _ = 1 to 20 do
    ignore (Corelite.Stateless_selector.observe s (marked 10.))
  done;
  let sent = ref 0 and epochs = 300 in
  for _ = 1 to epochs do
    Corelite.Stateless_selector.on_epoch s ~fn:5.;
    for _ = 1 to 20 do
      sent := !sent + Corelite.Stateless_selector.observe s (marked 10.)
    done
  done;
  check_float_eps 0.4 "mean feedback near fn" 5.
    (float_of_int !sent /. float_of_int epochs)

let test_stateless_rejects_negative_budget () =
  let s = mk_stateless 1 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Stateless_selector.on_epoch: negative budget") (fun () ->
      Corelite.Stateless_selector.on_epoch s ~fn:(-1.))

(* ------------------------------------------------------------------ *)
(* Router-reset soft-state semantics (robustness extension) *)

let test_cache_clear_empties () =
  let c = Corelite.Cache_selector.create ~capacity:8 ~rng:(Sim.Rng.create 3) in
  for i = 1 to 5 do
    Corelite.Cache_selector.observe c (marked ~flow:i (float_of_int i))
  done;
  Alcotest.(check int) "cached" 5 (Corelite.Cache_selector.occupancy c);
  Corelite.Cache_selector.clear c;
  Alcotest.(check int) "wiped" 0 (Corelite.Cache_selector.occupancy c);
  (* An empty cache selects nothing (and draws nothing): a freshly
     reset core cannot burst feedback from stale entries. *)
  Alcotest.(check int) "no draws" 0
    (Corelite.Cache_selector.select_iter c ~fn:5. (fun _ ->
         Alcotest.fail "selected from a cleared cache"));
  Alcotest.(check int) "empty selection" 0
    (List.length (Corelite.Cache_selector.select c ~fn:5.));
  (* A cleared cache must be a working cache. *)
  Corelite.Cache_selector.observe c (marked 1.);
  Alcotest.(check int) "usable after clear" 1 (Corelite.Cache_selector.occupancy c)

let test_stateless_reset_clears_state () =
  let s =
    Corelite.Stateless_selector.create ~rav_gain:0.5 ~wav_gain:0.5 ~pw_cap:8.
      ~rng:(Sim.Rng.create 4)
  in
  (* Build up rav/wav and arm a selection probability. *)
  for _ = 1 to 10 do
    ignore (Corelite.Stateless_selector.observe s (marked 4.))
  done;
  Corelite.Stateless_selector.on_epoch s ~fn:5.;
  Alcotest.(check bool) "armed" true (Corelite.Stateless_selector.pw s > 0.);
  Alcotest.(check bool) "rav built" true (Corelite.Stateless_selector.rav s > 0.);
  Corelite.Stateless_selector.reset s;
  check_float "pw zeroed" 0. (Corelite.Stateless_selector.pw s);
  check_float "rav forgotten" 0. (Corelite.Stateless_selector.rav s);
  Alcotest.(check int) "deficit zeroed" 0 (Corelite.Stateless_selector.deficit s);
  (* With pw = 0 nothing is selected until an epoch rebuilds a budget
     from fresh observations. *)
  Alcotest.(check int) "no selection after reset" 0
    (Corelite.Stateless_selector.observe s (marked 4.))

(* ------------------------------------------------------------------ *)
(* Edge agent *)

(* Two-hop network E -> C1 -> C2 -> D for one flow. *)
let edge_fixture ?(weight = 2.) ?(params = Corelite.Params.default) ?(auto_probes = true)
    () =
  let engine = Sim.Engine.create () in
  Sim.Metrics.set_auto_probes (Sim.Engine.metrics engine) auto_probes;
  let topology = Net.Topology.create engine in
  let n kind name = Net.Topology.add_node topology ~kind name in
  let e = n Net.Node.Edge "E" and c1 = n Net.Node.Core "C1" in
  let c2 = n Net.Node.Core "C2" and d = n Net.Node.Edge "D" in
  let link ~src ~dst =
    Net.Topology.add_link topology ~src ~dst ~bandwidth:4_000_000. ~delay:0.04
      ~qdisc:(Net.Qdisc.droptail ~capacity:40)
  in
  let l1 = link ~src:e ~dst:c1 in
  let l2 = link ~src:c1 ~dst:c2 in
  let l3 = link ~src:c2 ~dst:d in
  let flow = Net.Flow.make ~id:1 ~weight ~path:[ e; c1; c2; d ] in
  Net.Topology.route_paths topology [ flow.Net.Flow.path ];
  let agent = Corelite.Edge.create ~params ~topology ~flow () in
  (engine, topology, agent, (l1, l2, l3))

(* Per-flow probes: name, help and value of each corelite.flow.* row. *)
let flow_probe_rows engine =
  List.filter_map
    (fun r ->
      if String.starts_with ~prefix:"corelite.flow." r.Sim.Metrics.name then
        Some (r.Sim.Metrics.name, r.Sim.Metrics.help, r.Sim.Metrics.value)
      else None)
    (Sim.Metrics.rows (Sim.Engine.metrics engine))

let test_edge_probes_follow_auto_probes () =
  let engine, _, _, _ = edge_fixture ~auto_probes:false () in
  Alcotest.(check int) "auto-probes off: no per-flow rows" 0
    (List.length (flow_probe_rows engine));
  let engine, _, agent, _ = edge_fixture () in
  Alcotest.(check (list (triple string string (float 0.))))
    "auto-probes on: the five per-flow rows"
    [
      ("corelite.flow.1.delivered", "packets that reached the sink", 0.);
      ("corelite.flow.1.feedback_received", "feedback markers returned to this edge", 0.);
      ( "corelite.flow.1.markers_attached",
        "packets carrying a marker, one per marker_spacing",
        0. );
      ("corelite.flow.1.rate", "current allowed rate bg, pkt/s", Corelite.Edge.rate agent);
      ("corelite.flow.1.sent", "packets injected at the ingress", 0.);
    ]
    (flow_probe_rows engine)

let test_edge_marker_cadence () =
  let engine, _, agent, (l1, _, _) = edge_fixture ~weight:2. () in
  let markers = ref 0 and data = ref 0 in
  l1.Net.Link.hooks <-
    Some
      {
        Net.Link.on_arrival =
          (fun p ->
            incr data;
            if Net.Packet.has_marker p then incr markers;
            Net.Link.Pass);
        on_queue_change = (fun _ -> ());
      };
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 20.;
  Corelite.Edge.stop agent;
  (* Weight 2 with K1 = 1: every second packet carries a marker. *)
  Alcotest.(check int) "every 2nd packet" (!data / 2) !markers;
  Alcotest.(check int) "agent counted the same" !markers
    (Corelite.Edge.markers_attached agent)

let test_edge_marker_rn_is_normalized_rate () =
  let engine, _, agent, (l1, _, _) = edge_fixture ~weight:2. () in
  let checked = ref 0 in
  l1.Net.Link.hooks <-
    Some
      {
        Net.Link.on_arrival =
          (fun p ->
            (match Net.Packet.marker p with
            | Some m ->
              incr checked;
              (* rn must equal the agent's current rate / weight. *)
              if
                Float.abs
                  (m.Net.Packet.normalized_rate -. (Corelite.Edge.rate agent /. 2.))
                > 1e-9
              then Alcotest.fail "rn mismatch"
            | None -> ());
            Net.Link.Pass);
        on_queue_change = (fun _ -> ());
      };
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 10.;
  Alcotest.(check bool) "saw markers" true (!checked > 0)

let test_edge_reacts_to_max_not_sum () =
  let engine, _, agent, (_, l2, l3) = edge_fixture () in
  Corelite.Edge.start agent;
  (* By t = 7 the slow-start threshold has put the agent in linear
     mode at a known rate. *)
  Sim.Engine.run_until engine 7.;
  let rate0 = Corelite.Edge.rate agent in
  (* 3 markers from C1->C2, 2 from C2->D within one epoch: the decrease
     must be beta * max(3,2) = 3, not 5. *)
  for _ = 1 to 3 do
    Corelite.Edge.receive_feedback agent ~link_id:l2.Net.Link.id (marker 1.)
  done;
  for _ = 1 to 2 do
    Corelite.Edge.receive_feedback agent ~link_id:l3.Net.Link.id (marker 1.)
  done;
  (* Run just past the next epoch boundary. *)
  Sim.Engine.run_until engine (Sim.Engine.now engine +. 0.55);
  let drop = rate0 -. Corelite.Edge.rate agent in
  check_float "decrease by max" 3. drop

let test_edge_rejects_off_path_feedback () =
  let engine, _, agent, (_, l2, _) = edge_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 1.;
  Alcotest.check_raises "link 100 is off E->C1->C2->D"
    (Invalid_argument "Corelite.Edge.receive_feedback: link 100 is not on flow 1's path")
    (fun () -> Corelite.Edge.receive_feedback agent ~link_id:100 (marker 1.));
  Alcotest.(check int) "nothing counted" 0 (Corelite.Edge.feedback_received agent);
  (* A path link and the hand-off slot are accepted. *)
  Corelite.Edge.receive_feedback agent ~link_id:l2.Net.Link.id (marker 1.);
  Corelite.Edge.receive_feedback agent ~link_id:(Corelite.Edge.handoff_link agent)
    (marker 1.);
  Alcotest.(check int) "path link and hand-off counted" 2
    (Corelite.Edge.feedback_received agent)

let test_edge_feedback_ignored_when_stopped () =
  let engine, _, agent, _ = edge_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 2.;
  Corelite.Edge.stop agent;
  Corelite.Edge.receive_feedback agent ~link_id:1 (marker 1.);
  Alcotest.(check int) "not counted" 0 (Corelite.Edge.feedback_received agent)

let test_edge_delivery_counting () =
  let engine, _, agent, _ = edge_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 10.;
  Corelite.Edge.stop agent;
  Sim.Engine.run_until engine 11.;
  (* Everything sent arrives (no congestion from one slow-started flow). *)
  Alcotest.(check int) "all delivered" (Corelite.Edge.sent agent)
    (Corelite.Edge.delivered agent);
  Alcotest.(check bool) "sent something" true (Corelite.Edge.sent agent > 0)

let test_edge_restart_after_stop () =
  let engine, _, agent, _ = edge_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 5.;
  Corelite.Edge.stop agent;
  Alcotest.(check bool) "stopped" false (Corelite.Edge.running agent);
  Corelite.Edge.start agent;
  Alcotest.(check bool) "running again" true (Corelite.Edge.running agent);
  check_float "fresh slow-start rate" 1. (Corelite.Edge.rate agent)

(* ------------------------------------------------------------------ *)
(* Core logic *)

let core_fixture ?(params = Corelite.Params.default) () =
  let engine, topology, agent, (l1, l2, l3) = edge_fixture ~params () in
  let feedback = ref [] in
  let core =
    Corelite.Core.attach ~params ~rng:(Sim.Rng.create 5)
      ~send_feedback:(fun m -> feedback := m :: !feedback)
      l2
  in
  (engine, topology, agent, core, feedback, (l1, l2, l3))

let test_core_attach_rejects_hooked_link () =
  let params = Corelite.Params.default in
  let _, _, _, _, _, (_, l2, _) = core_fixture ~params () in
  Alcotest.check_raises "already hooked"
    (Invalid_argument "Core.attach: link C1->C2 already has hooks") (fun () ->
      ignore
        (Corelite.Core.attach ~params ~rng:(Sim.Rng.create 6)
           ~send_feedback:(fun _ -> ())
           l2))

let test_core_counts_markers () =
  let engine, _, agent, core, _, _ = core_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 10.;
  Alcotest.(check int) "sees every marker" (Corelite.Edge.markers_attached agent)
    (Corelite.Core.markers_seen core)

let test_core_no_feedback_without_congestion () =
  let engine, _, agent, core, feedback, _ = core_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 10.;
  (* A single slow flow cannot congest a 500 pkt/s link capped at 32. *)
  Alcotest.(check int) "no congested epochs" 0 (Corelite.Core.congested_epochs core);
  Alcotest.(check int) "no feedback" 0 (List.length !feedback)

let test_core_detach_restores_link () =
  let _, _, _, core, _, (_, l2, _) = core_fixture () in
  Corelite.Core.detach core;
  Alcotest.(check bool) "hooks removed" true (l2.Net.Link.hooks = None)

let test_core_detects_congestion_under_load () =
  (* Drive the core link above capacity with a hand-made blaster that
     ignores feedback, and check congestion detection + feedback. *)
  let params = Corelite.Params.default in
  let engine, _, agent, core, feedback, (_, l2, _) = core_fixture ~params () in
  (* Install the flow's sink, then silence the cooperative source so
     only the blaster drives the link. Inject straight into the core
     link so the access link cannot shave the overload. *)
  Corelite.Edge.start agent;
  Corelite.Edge.stop agent;
  let seq = ref 0 in
  let blast =
    Sim.Engine.every engine ~period:(1. /. 700.) (fun () ->
        incr seq;
        (* One marker per packet, labelled at a high normalized rate. *)
        let pkt =
          Net.Packet.make ~id:!seq ~flow:1
            ~marker:(marker ~flow:1 700.)
            ~created:(Sim.Engine.now engine) ()
        in
        pkt.Net.Packet.dst <- 0 (* D, the fixture's only host *);
        Net.Link.send l2 pkt)
  in
  Sim.Engine.run_until engine 10.;
  Sim.Engine.cancel blast;
  Alcotest.(check bool) "congestion detected" true
    (Corelite.Core.congested_epochs core > 0);
  Alcotest.(check bool) "qavg measured" true (Corelite.Core.last_qavg core > 0.);
  Alcotest.(check bool) "feedback emitted" true (List.length !feedback > 0);
  Alcotest.(check bool) "feedback counter matches" true
    (Corelite.Core.feedback_sent core = List.length !feedback)

(* A rebooted core must rebuild its view from zero: no feedback burst
   from stale selector entries or a stale queue average. *)
let test_core_reset_no_feedback_burst () =
  let params = Corelite.Params.default in
  let engine, _, agent, core, feedback, (_, l2, _) = core_fixture ~params () in
  Corelite.Edge.start agent;
  Corelite.Edge.stop agent;
  let seq = ref 0 in
  let blast =
    Sim.Engine.every engine ~period:(1. /. 700.) (fun () ->
        incr seq;
        let pkt =
          Net.Packet.make ~id:!seq ~flow:1
            ~marker:(marker ~flow:1 700.)
            ~created:(Sim.Engine.now engine) ()
        in
        pkt.Net.Packet.dst <- 0 (* D, the fixture's only host *);
        Net.Link.send l2 pkt)
  in
  Sim.Engine.run_until engine 10.;
  Sim.Engine.cancel blast;
  Alcotest.(check bool) "was congested" true (List.length !feedback > 0);
  (* Reboot the router mid-run: RAM (queue) and soft state both go. *)
  Net.Link.reset l2;
  Corelite.Core.reset core;
  check_float "qavg wiped" 0. (Corelite.Core.last_qavg core);
  check_float "fn wiped" 0. (Corelite.Core.last_fn core);
  let after_reset = List.length !feedback in
  Sim.Engine.run_until engine 15.;
  (* Epochs keep ticking on an idle, rebuilt core: nothing to say. *)
  Alcotest.(check int) "no feedback burst" after_reset (List.length !feedback)

let test_edge_reset_restarts_adaptation () =
  let engine, _, agent, _ = edge_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 5.;
  let initial = (Corelite.Edge.params agent).Corelite.Params.source.Net.Source.initial_rate in
  Alcotest.(check bool) "rate adapted away from initial" true
    (Corelite.Edge.rate agent > initial);
  Corelite.Edge.reset agent;
  Alcotest.(check bool) "still running" true (Corelite.Edge.running agent);
  check_float "rate back to initial" initial (Corelite.Edge.rate agent);
  (* The restarted agent keeps sending. *)
  let sent = Corelite.Edge.sent agent in
  Sim.Engine.run_until engine 8.;
  Alcotest.(check bool) "emitting after reset" true (Corelite.Edge.sent agent > sent)

(* A stopped agent stays stopped across a reset (a rebooted edge router
   does not resurrect flows the application already closed). *)
let test_edge_reset_respects_stopped () =
  let engine, _, agent, _ = edge_fixture () in
  Corelite.Edge.start agent;
  Sim.Engine.run_until engine 2.;
  Corelite.Edge.stop agent;
  Corelite.Edge.reset agent;
  Alcotest.(check bool) "still stopped" false (Corelite.Edge.running agent);
  let sent = Corelite.Edge.sent agent in
  Sim.Engine.run_until engine 4.;
  Alcotest.(check int) "no packets after reset" sent (Corelite.Edge.sent agent)

(* ------------------------------------------------------------------ *)
(* End-to-end convergence *)

let converge_fixture ~selector ~weights n ~duration =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights n in
  let params = { Corelite.Params.default with Corelite.Params.selector } in
  let schedule = List.init n (fun i -> (0., Workload.Runner.Start (i + 1))) in
  Workload.Runner.run ~scheme:(Workload.Runner.Corelite params) ~network ~schedule
    ~duration ()

let test_converges_weighted_single_bottleneck () =
  let result =
    converge_fixture ~selector:Corelite.Params.Stateless
      ~weights:(fun i -> float_of_int i)
      3 ~duration:180.
  in
  (* Weights 1:2:3 over 500 pkt/s -> 83.3 / 166.7 / 250. Linear increase
     is 2 pkt/s per second, so the heaviest flow needs ~110 s to climb
     from the slow-start exit to 250. *)
  let m i = Workload.Runner.mean_rate result ~flow:i ~from:150. ~until:180. in
  check_float_eps 10. "flow 1" 83.3 (m 1);
  check_float_eps 15. "flow 2" 166.7 (m 2);
  check_float_eps 20. "flow 3" 250. (m 3);
  Alcotest.(check bool) "fair" true
    (Workload.Runner.jain result ~from:150. ~until:180. > 0.99)

let test_converges_with_cache_selector () =
  let result =
    converge_fixture ~selector:Corelite.Params.Cache
      ~weights:(fun i -> float_of_int i)
      3 ~duration:180.
  in
  Alcotest.(check bool) "cache selector fair" true
    (Workload.Runner.jain result ~from:150. ~until:180. > 0.95)

let test_no_drops_in_steady_state () =
  let result =
    converge_fixture ~selector:Corelite.Params.Stateless ~weights:(fun _ -> 1.) 4
      ~duration:60.
  in
  Alcotest.(check int) "no loss" 0 result.Workload.Runner.core_drops

let test_full_utilization () =
  let result =
    converge_fixture ~selector:Corelite.Params.Stateless ~weights:(fun _ -> 1.) 4
      ~duration:60.
  in
  let total =
    List.fold_left
      (fun acc (_, r) -> acc +. r)
      0.
      (Workload.Runner.mean_rates result ~from:40. ~until:60.)
  in
  Alcotest.(check bool) "at least 90% of capacity used" true (total > 450.);
  let goodput =
    List.fold_left
      (fun acc (_, ts) ->
        acc
        +. Option.value ~default:0. (Sim.Timeseries.window_mean ts ~from:40. ~until:60.))
      0. result.Workload.Runner.goodput_series
  in
  Alcotest.(check bool) "goodput bounded by capacity" true (goodput <= 510.)

let test_multihop_maxmin () =
  (* Parking lot: one long flow over two links, one cross flow per
     link; unweighted max-min gives everyone 250. *)
  let engine = Sim.Engine.create () in
  let topology = Net.Topology.create engine in
  let n kind name = Net.Topology.add_node topology ~kind name in
  let e0 = n Net.Node.Edge "E0" and e1 = n Net.Node.Edge "E1" in
  let e2 = n Net.Node.Edge "E2" in
  let d0 = n Net.Node.Edge "D0" and d1 = n Net.Node.Edge "D1" in
  let d2 = n Net.Node.Edge "D2" in
  let c1 = n Net.Node.Core "C1" and c2 = n Net.Node.Core "C2" in
  let c3 = n Net.Node.Core "C3" in
  let link ~src ~dst =
    Net.Topology.add_link topology ~src ~dst ~bandwidth:4_000_000. ~delay:0.04
      ~qdisc:(Net.Qdisc.droptail ~capacity:40)
  in
  let l12 = link ~src:c1 ~dst:c2 in
  let l23 = link ~src:c2 ~dst:c3 in
  ignore (link ~src:e0 ~dst:c1);
  ignore (link ~src:e1 ~dst:c1);
  ignore (link ~src:e2 ~dst:c2);
  ignore (link ~src:c2 ~dst:d1);
  ignore (link ~src:c3 ~dst:d0);
  ignore (link ~src:c3 ~dst:d2);
  let flows =
    [
      Net.Flow.make ~id:1 ~weight:1. ~path:[ e0; c1; c2; c3; d0 ];
      Net.Flow.make ~id:2 ~weight:1. ~path:[ e1; c1; c2; d1 ];
      Net.Flow.make ~id:3 ~weight:1. ~path:[ e2; c2; c3; d2 ];
    ]
  in
  Net.Topology.route_paths topology (List.map (fun f -> f.Net.Flow.path) flows);
  let network =
    { Workload.Network.engine; topology; flows; core_links = [ l12; l23 ] }
  in
  let schedule = List.init 3 (fun i -> (0., Workload.Runner.Start (i + 1))) in
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network ~schedule ~duration:200. ()
  in
  List.iter
    (fun i ->
      check_float_eps 40.
        (Printf.sprintf "flow %d near 250" i)
        250.
        (Workload.Runner.mean_rate result ~flow:i ~from:160. ~until:200.))
    [ 1; 2; 3 ]

let test_min_rate_contract_honored () =
  (* Flow 1 contracts 200 pkt/s among 4 equal-weight flows on 500:
     it must keep >= 200 while the rest share the remainder. *)
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 4 in
  let schedule = List.init 4 (fun i -> (0., Workload.Runner.Start (i + 1))) in
  let result =
    Workload.Runner.run ~scheme:(Workload.Runner.Corelite Corelite.Params.default)
      ~network ~floors:[ (1, 200.) ] ~schedule ~duration:120. ()
  in
  let m i = Workload.Runner.mean_rate result ~flow:i ~from:90. ~until:120. in
  Alcotest.(check bool) "contract met" true (m 1 >= 195.);
  Alcotest.(check bool) "others squeezed but alive" true (m 2 > 50. && m 2 < 130.)

(* ------------------------------------------------------------------ *)
(* Invariant auditing *)

let test_invariants_hold_under_congestion () =
  (* Run a congested scenario for both selectors with every runtime
     check on: engine monotonicity, link conservation and the core
     feedback budgets must all hold (a Violation would fail the test),
     and the audit must actually have run. *)
  List.iter
    (fun selector ->
      let before = Sim.Invariant.checks_run () in
      let result =
        converge_fixture ~selector ~weights:(fun _ -> 1.) 4 ~duration:60.
      in
      Alcotest.(check bool) "scenario congested" true
        (result.Workload.Runner.feedback_markers > 0);
      Alcotest.(check bool) "audit ran" true (Sim.Invariant.checks_run () > before))
    [ Corelite.Params.Stateless; Corelite.Params.Cache ]

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "corelite"
    [
      ( "params",
        [
          Alcotest.test_case "marker spacing" `Quick test_marker_spacing;
          Alcotest.test_case "spacing bad weight" `Quick
            test_marker_spacing_rejects_bad_weight;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "zero below threshold" `Quick test_fn_zero_below_threshold;
          Alcotest.test_case "mm1 term" `Quick test_fn_mm1_term;
          Alcotest.test_case "cubic term" `Quick test_fn_cubic_term;
          Alcotest.test_case "mm1 arrival rate" `Quick test_fn_mm1_arrival_rate;
          Alcotest.test_case "cubic boundary" `Quick test_fn_cubic_boundary;
          Alcotest.test_case "clamps bad qavg (release)" `Quick
            test_budget_clamps_bad_qavg_when_released;
          Alcotest.test_case "raises on bad qavg (debug)" `Quick
            test_budget_raises_on_bad_qavg_in_debug;
          Alcotest.test_case "negative inputs" `Quick test_budget_rejects_negative_inputs;
          Alcotest.test_case "reset forgets smoothing" `Quick
            test_congestion_reset_forgets_smoothed_queue;
          qt prop_fn_monotone_in_qavg;
          qt prop_fn_nonnegative;
        ] );
      ( "cache_selector",
        [
          Alcotest.test_case "occupancy and wrap" `Quick test_cache_occupancy_and_wrap;
          Alcotest.test_case "empty select" `Quick test_cache_empty_select;
          Alcotest.test_case "select count" `Quick test_cache_select_count;
          Alcotest.test_case "proportional feedback" `Quick
            test_cache_proportional_feedback;
          Alcotest.test_case "bad args" `Quick test_cache_rejects_bad_args;
          Alcotest.test_case "clear empties" `Quick test_cache_clear_empties;
        ] );
      ( "stateless_selector",
        [
          Alcotest.test_case "idle without budget" `Quick test_stateless_idle_without_budget;
          Alcotest.test_case "rav tracks labels" `Quick test_stateless_rav_tracks_labels;
          Alcotest.test_case "pw arming" `Quick test_stateless_pw_arming;
          Alcotest.test_case "pw cap" `Quick test_stateless_pw_cap;
          Alcotest.test_case "selects only above average" `Quick
            test_stateless_selects_only_above_average;
          Alcotest.test_case "deficit swaps" `Quick test_stateless_deficit_swaps;
          Alcotest.test_case "deficit resets" `Quick test_stateless_deficit_resets_each_epoch;
          Alcotest.test_case "expected feedback rate" `Quick
            test_stateless_expected_feedback_rate;
          Alcotest.test_case "negative budget" `Quick test_stateless_rejects_negative_budget;
          Alcotest.test_case "reset clears state" `Quick test_stateless_reset_clears_state;
        ] );
      ( "edge",
        [
          Alcotest.test_case "marker cadence" `Quick test_edge_marker_cadence;
          Alcotest.test_case "probes follow auto-probes" `Quick
            test_edge_probes_follow_auto_probes;
          Alcotest.test_case "marker rn" `Quick test_edge_marker_rn_is_normalized_rate;
          Alcotest.test_case "max not sum" `Quick test_edge_reacts_to_max_not_sum;
          Alcotest.test_case "rejects off-path feedback" `Quick
            test_edge_rejects_off_path_feedback;
          Alcotest.test_case "feedback when stopped" `Quick
            test_edge_feedback_ignored_when_stopped;
          Alcotest.test_case "delivery counting" `Quick test_edge_delivery_counting;
          Alcotest.test_case "restart" `Quick test_edge_restart_after_stop;
          Alcotest.test_case "reset restarts adaptation" `Quick
            test_edge_reset_restarts_adaptation;
          Alcotest.test_case "reset respects stopped" `Quick
            test_edge_reset_respects_stopped;
        ] );
      ( "core",
        [
          Alcotest.test_case "attach rejects hooked" `Quick
            test_core_attach_rejects_hooked_link;
          Alcotest.test_case "counts markers" `Quick test_core_counts_markers;
          Alcotest.test_case "quiet without congestion" `Quick
            test_core_no_feedback_without_congestion;
          Alcotest.test_case "detach" `Quick test_core_detach_restores_link;
          Alcotest.test_case "detects congestion" `Quick
            test_core_detects_congestion_under_load;
          Alcotest.test_case "reset: no feedback burst" `Quick
            test_core_reset_no_feedback_burst;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "weighted single bottleneck" `Slow
            test_converges_weighted_single_bottleneck;
          Alcotest.test_case "cache selector" `Slow test_converges_with_cache_selector;
          Alcotest.test_case "no drops steady state" `Slow test_no_drops_in_steady_state;
          Alcotest.test_case "full utilization" `Slow test_full_utilization;
          Alcotest.test_case "multihop maxmin" `Slow test_multihop_maxmin;
          Alcotest.test_case "min-rate contract" `Slow test_min_rate_contract_honored;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "holds under congestion" `Slow
            test_invariants_hold_under_congestion;
        ] );
    ]
