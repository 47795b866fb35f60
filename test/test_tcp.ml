(* Tests for the TCP substrate and the aggregation layer: the Reno
   sender/receiver pair, on/off burst driving, the congestion estimator
   variants, and TCP micro-flows inside Corelite aggregates. *)

let check_float = Alcotest.(check (float 1e-9))

let check_float_eps eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* A loopback harness: sender -> (delay, optional loss) -> receiver ->
   (delay) -> acks. *)

type harness = {
  engine : Sim.Engine.t;
  sender : Net.Tcp.Sender.t;
  receiver : Net.Tcp.Receiver.t;
  drop_next : bool ref;  (* drop the next transmission *)
  drop_until : float ref;  (* drop everything before this time *)
}

let make_harness ?(params = Net.Tcp.default_params) ?(delay = 0.05) () =
  let engine = Sim.Engine.create () in
  let drop_next = ref false in
  let drop_seqs = ref [] in
  let drop_until = ref 0. in
  let sender_cell = ref None in
  let send_ack ackno =
    Sim.Engine.schedule engine ~delay (fun () ->
        match !sender_cell with
        | Some s -> Net.Tcp.Sender.ack s ackno
        | None -> ())
  in
  let receiver = Net.Tcp.Receiver.create ~send_ack in
  let transmit pkt =
    let seq = pkt.Net.Packet.id in
    let dropped =
      !drop_next || List.mem seq !drop_seqs || Sim.Engine.now engine < !drop_until
    in
    drop_next := false;
    drop_seqs := List.filter (fun s -> s <> seq) !drop_seqs;
    if not dropped then
      Sim.Engine.schedule engine ~delay (fun () ->
          Net.Tcp.Receiver.receive receiver pkt)
  in
  let sender = Net.Tcp.Sender.create ~engine ~params ~flow:1 ~micro:1 ~transmit () in
  sender_cell := Some sender;
  { engine; sender; receiver; drop_next; drop_until }

let test_tcp_in_order_transfer () =
  let engine = Sim.Engine.create () in
  let sender_cell = ref None in
  let receiver =
    Net.Tcp.Receiver.create ~send_ack:(fun ackno ->
        Sim.Engine.schedule engine ~delay:0.05 (fun () ->
            match !sender_cell with
            | Some s -> Net.Tcp.Sender.ack s ackno
            | None -> ()))
  in
  let sender =
    Net.Tcp.Sender.create ~engine ~flow:1 ~micro:1
      ~transmit:(fun pkt ->
        Sim.Engine.schedule engine ~delay:0.05 (fun () ->
            Net.Tcp.Receiver.receive receiver pkt))
      ()
  in
  sender_cell := Some sender;
  Net.Tcp.Sender.start sender;
  Sim.Engine.run_until engine 10.;
  Net.Tcp.Sender.stop sender;
  Alcotest.(check bool) "delivered plenty" true (Net.Tcp.Receiver.delivered receiver > 100);
  Alcotest.(check int) "no retransmits on a clean path" 0
    (Net.Tcp.Sender.retransmits sender);
  Alcotest.(check int) "no timeouts" 0 (Net.Tcp.Sender.timeouts sender);
  (* Congestion avoidance added ~1 packet per 0.1 s RTT on top of the
     32-packet ssthresh over the 10 s run. *)
  Alcotest.(check bool) "cwnd grew deep into avoidance" true
    (Net.Tcp.Sender.cwnd sender > 100.);
  check_float_eps 0.02 "srtt near 2*delay" 0.1 (Net.Tcp.Sender.srtt sender)

let test_tcp_slow_start_then_avoidance () =
  let engine = Sim.Engine.create () in
  let sender_cell = ref None in
  let receiver =
    Net.Tcp.Receiver.create ~send_ack:(fun ackno ->
        Sim.Engine.schedule engine ~delay:0.05 (fun () ->
            match !sender_cell with
            | Some s -> Net.Tcp.Sender.ack s ackno
            | None -> ()))
  in
  let sender =
    Net.Tcp.Sender.create ~engine ~flow:1 ~micro:1
      ~transmit:(fun pkt ->
        Sim.Engine.schedule engine ~delay:0.05 (fun () ->
            Net.Tcp.Receiver.receive receiver pkt))
      ()
  in
  sender_cell := Some sender;
  Net.Tcp.Sender.start sender;
  (* After one RTT in slow start the window has roughly doubled. *)
  Sim.Engine.run_until engine 0.12;
  Alcotest.(check bool) "ss grows fast" true (Net.Tcp.Sender.cwnd sender >= 4.);
  Sim.Engine.run_until engine 2.;
  Alcotest.(check bool) "crossed ssthresh into avoidance" true
    (Net.Tcp.Sender.cwnd sender >= Net.Tcp.Sender.ssthresh sender);
  Net.Tcp.Sender.stop sender

let test_tcp_fast_retransmit_on_loss () =
  let h = make_harness () in
  Net.Tcp.Sender.start h.sender;
  Sim.Engine.run_until h.engine 1.;
  let cwnd_before = Net.Tcp.Sender.cwnd h.sender in
  (* Drop exactly one future segment; dupacks must recover it without a
     timeout. *)
  h.drop_next := true;
  Sim.Engine.run_until h.engine 3.;
  Alcotest.(check bool) "retransmitted" true (Net.Tcp.Sender.retransmits h.sender >= 1);
  Alcotest.(check int) "no timeout needed" 0 (Net.Tcp.Sender.timeouts h.sender);
  Alcotest.(check bool) "window halved at some point" true
    (Net.Tcp.Sender.ssthresh h.sender <= cwnd_before);
  (* The byte stream keeps advancing after recovery. *)
  let delivered = Net.Tcp.Receiver.delivered h.receiver in
  Sim.Engine.run_until h.engine 4.;
  Alcotest.(check bool) "stream advances" true
    (Net.Tcp.Receiver.delivered h.receiver > delivered);
  Net.Tcp.Sender.stop h.sender

let test_tcp_timeout_recovers_burst_loss () =
  let params = { Net.Tcp.default_params with Net.Tcp.initial_cwnd = 4. } in
  let h = make_harness ~params () in
  Net.Tcp.Sender.start h.sender;
  Sim.Engine.run_until h.engine 0.5;
  (* Black out the path for 3 s: in-flight ACKs drain, everything new
     is lost, so only the RTO can restart the transfer. *)
  h.drop_until := 3.5;
  Sim.Engine.run_until h.engine 8.;
  Alcotest.(check bool) "timeout fired" true (Net.Tcp.Sender.timeouts h.sender >= 1);
  let delivered = Net.Tcp.Receiver.delivered h.receiver in
  Sim.Engine.run_until h.engine 12.;
  Alcotest.(check bool) "recovered and progressing" true
    (Net.Tcp.Receiver.delivered h.receiver > delivered);
  Net.Tcp.Sender.stop h.sender

let test_tcp_receiver_reorders () =
  let acks = ref [] in
  let r = Net.Tcp.Receiver.create ~send_ack:(fun a -> acks := a :: !acks) in
  let pkt seq = Net.Packet.make ~id:seq ~flow:1 ~created:0. () in
  Net.Tcp.Receiver.receive r (pkt 1);
  Net.Tcp.Receiver.receive r (pkt 3);
  (* gap at 2 *)
  Net.Tcp.Receiver.receive r (pkt 4);
  Net.Tcp.Receiver.receive r (pkt 2);
  (* fills the hole: cumulative jumps to 4 *)
  Alcotest.(check (list int)) "cumulative acks" [ 1; 1; 1; 4 ] (List.rev !acks);
  Alcotest.(check int) "delivered in order" 4 (Net.Tcp.Receiver.delivered r)

let test_tcp_duplicate_segments_harmless () =
  let acks = ref [] in
  let r = Net.Tcp.Receiver.create ~send_ack:(fun a -> acks := a :: !acks) in
  let pkt seq = Net.Packet.make ~id:seq ~flow:1 ~created:0. () in
  Net.Tcp.Receiver.receive r (pkt 1);
  Net.Tcp.Receiver.receive r (pkt 1);
  Net.Tcp.Receiver.receive r (pkt 2);
  Alcotest.(check int) "no double count" 2 (Net.Tcp.Receiver.delivered r)

(* ------------------------------------------------------------------ *)
(* Onoff *)

let test_onoff_toggles () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 3 in
  let states = ref [] in
  let driver =
    Net.Onoff.start ~engine ~rng ~on_mean:1. ~off_mean:1. (fun s ->
        states := (Sim.Engine.now engine, s) :: !states)
  in
  Sim.Engine.run_until engine 50.;
  Net.Onoff.stop driver;
  let transitions = List.length !states in
  Alcotest.(check bool) "many transitions (mean 1 s)" true (transitions > 20);
  (* States alternate, starting with on. *)
  let rec alternates expected = function
    | [] -> true
    | (_, s) :: rest -> s = expected && alternates (not expected) rest
  in
  Alcotest.(check bool) "alternating" true (alternates true (List.rev !states));
  Alcotest.(check int) "transition counter" transitions
    (Net.Onoff.transitions driver + 1)

let test_onoff_stop () =
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  let driver =
    Net.Onoff.start ~engine ~rng:(Sim.Rng.create 4) ~on_mean:0.5 ~off_mean:0.5
      (fun _ -> incr count)
  in
  Sim.Engine.run_until engine 5.;
  Net.Onoff.stop driver;
  let frozen = !count in
  Sim.Engine.run_until engine 20.;
  Alcotest.(check int) "no toggles after stop" frozen !count

let test_onoff_pareto_distribution () =
  let engine = Sim.Engine.create () in
  let driver =
    Net.Onoff.start ~engine ~rng:(Sim.Rng.create 8)
      ~distribution:(Net.Onoff.Pareto 1.5) ~on_mean:1. ~off_mean:1.
      (fun _ -> ())
  in
  Sim.Engine.run_until engine 200.;
  Net.Onoff.stop driver;
  (* Heavy-tailed periods still produce a plausible number of
     transitions around the mean. *)
  Alcotest.(check bool) "toggling happened" true (Net.Onoff.transitions driver > 20);
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Onoff.start: Pareto shape must exceed 1") (fun () ->
      ignore
        (Net.Onoff.start ~engine ~rng:(Sim.Rng.create 9)
           ~distribution:(Net.Onoff.Pareto 1.) ~on_mean:1. ~off_mean:1.
           (fun _ -> ())))

let test_onoff_validation () =
  let engine = Sim.Engine.create () in
  let bad_means descr ~on_mean ~off_mean =
    Alcotest.check_raises descr
      (Invalid_argument "Onoff.start: means must be positive") (fun () ->
        ignore
          (Net.Onoff.start ~engine ~rng:(Sim.Rng.create 1) ~on_mean ~off_mean
             (fun _ -> ())))
  in
  bad_means "zero on_mean" ~on_mean:0. ~off_mean:1.;
  bad_means "negative off_mean" ~on_mean:1. ~off_mean:(-1.);
  (* A nan mean passes a bare [<= 0.] check and would schedule the next
     flip at a nan timestamp. *)
  bad_means "nan on_mean" ~on_mean:Float.nan ~off_mean:1.;
  bad_means "infinite off_mean" ~on_mean:1. ~off_mean:Float.infinity;
  Alcotest.check_raises "nan Pareto shape"
    (Invalid_argument "Onoff.start: Pareto shape must exceed 1") (fun () ->
      ignore
        (Net.Onoff.start ~engine ~rng:(Sim.Rng.create 1)
           ~distribution:(Net.Onoff.Pareto Float.nan) ~on_mean:1. ~off_mean:1.
           (fun _ -> ())))

(* ------------------------------------------------------------------ *)
(* Congestion estimator variants *)

let test_estimator_linear () =
  let e = Corelite.Congestion.make (Corelite.Congestion.Linear_excess 0.5) in
  check_float "below threshold" 0.
    (Corelite.Congestion.budget e ~mu:50. ~qavg:5. ~qthresh:8.);
  check_float "proportional above" 2.
    (Corelite.Congestion.budget e ~mu:50. ~qavg:12. ~qthresh:8.)

let test_estimator_ewma_smooths () =
  let e =
    Corelite.Congestion.make
      (Corelite.Congestion.Ewma_threshold { gain = 0.5; scale = 1. })
  in
  (* Establish an uncongested history... *)
  for _ = 1 to 10 do
    ignore (Corelite.Congestion.budget e ~mu:50. ~qavg:4. ~qthresh:8.)
  done;
  (* ...then a single spike is discounted by the EWMA... *)
  let spike = Corelite.Congestion.budget e ~mu:50. ~qavg:20. ~qthresh:8. in
  Alcotest.(check bool) "spike dampened" true (spike < 12.);
  (* ...but sustained congestion converges to the full excess. *)
  let budget = ref 0. in
  for _ = 1 to 20 do
    budget := Corelite.Congestion.budget e ~mu:50. ~qavg:20. ~qthresh:8.
  done;
  check_float_eps 0.1 "converges to excess" 12. !budget

let test_estimator_mm1_matches_closed_form () =
  let e = Corelite.Congestion.make (Corelite.Congestion.Mm1_cubic 0.01) in
  check_float "matches markers_needed"
    (Corelite.Congestion.markers_needed ~mu:50. ~qavg:14. ~qthresh:8. ~k:0.01)
    (Corelite.Congestion.budget e ~mu:50. ~qavg:14. ~qthresh:8.)

(* ------------------------------------------------------------------ *)
(* Aggregates *)

let aggregate_fixture () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1 in
  let flow = Workload.Network.flow network 1 in
  let aggregate =
    Corelite.Aggregate.create ~params:Corelite.Params.default
      ~topology:network.Workload.Network.topology ~flow ~queue_capacity:4 ()
  in
  (engine, network, aggregate)

let mk_micro_pkt ~seq ~micro now =
  Net.Packet.make ~id:seq ~flow:1 ~micro ~created:now ()

let test_aggregate_queue_bound () =
  let _, _, aggregate = aggregate_fixture () in
  for seq = 1 to 4 do
    Alcotest.(check bool) "accepted" true
      (Corelite.Aggregate.submit aggregate (mk_micro_pkt ~seq ~micro:1 0.))
  done;
  Alcotest.(check bool) "fifth rejected" false
    (Corelite.Aggregate.submit aggregate (mk_micro_pkt ~seq:5 ~micro:1 0.));
  Alcotest.(check int) "drop counted" 1 (Corelite.Aggregate.edge_drops aggregate);
  Alcotest.(check int) "backlog" 4 (Corelite.Aggregate.backlog aggregate);
  (* A different micro-flow has its own queue. *)
  Alcotest.(check bool) "other micro accepted" true
    (Corelite.Aggregate.submit aggregate (mk_micro_pkt ~seq:1 ~micro:2 0.))

let test_aggregate_round_robin () =
  let engine, _, aggregate = aggregate_fixture () in
  let delivered = ref [] in
  Corelite.Aggregate.set_consumer aggregate ~micro:1 (fun p ->
      delivered := (1, p.Net.Packet.id) :: !delivered);
  Corelite.Aggregate.set_consumer aggregate ~micro:2 (fun p ->
      delivered := (2, p.Net.Packet.id) :: !delivered);
  Corelite.Aggregate.start aggregate;
  (* Backlog both micro-flows: 3 packets each; service must alternate. *)
  for seq = 1 to 3 do
    ignore (Corelite.Aggregate.submit aggregate (mk_micro_pkt ~seq ~micro:1 0.));
    ignore (Corelite.Aggregate.submit aggregate (mk_micro_pkt ~seq ~micro:2 0.))
  done;
  Sim.Engine.run_until engine 30.;
  Corelite.Aggregate.stop aggregate;
  let order = List.rev !delivered in
  Alcotest.(check int) "all delivered" 6 (List.length order);
  (* Adjacent deliveries alternate between the two micro-flows. *)
  let rec alternating = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <> b && alternating rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "round robin" true (alternating order)

let test_aggregate_application_limited () =
  let engine, _, aggregate = aggregate_fixture () in
  Corelite.Aggregate.set_consumer aggregate ~micro:1 (fun _ -> ());
  Corelite.Aggregate.start aggregate;
  ignore (Corelite.Aggregate.submit aggregate (mk_micro_pkt ~seq:1 ~micro:1 0.));
  Sim.Engine.run_until engine 20.;
  (* With the backlog drained the shaper freezes instead of probing. *)
  let rate_idle = Corelite.Edge.rate (Corelite.Aggregate.edge aggregate) in
  Sim.Engine.run_until engine 40.;
  check_float "no probing while idle" rate_idle
    (Corelite.Edge.rate (Corelite.Aggregate.edge aggregate));
  Alcotest.(check int) "no stray deliveries" 0
    (Corelite.Aggregate.undeliverable aggregate)

let test_aggregate_rejects_bad_capacity () =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 1 in
  let flow = Workload.Network.flow network 1 in
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Aggregate.create: queue_capacity must be positive") (fun () ->
      ignore
        (Corelite.Aggregate.create ~params:Corelite.Params.default
           ~topology:network.Workload.Network.topology ~flow ~queue_capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Tcp_workload end-to-end *)

let test_tcp_workload_weighted_aggregates () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.single_bottleneck ~engine ~weights:(fun i -> float_of_int i) 2
  in
  let tcp = Workload.Tcp_workload.build ~network ~micro_flows:(fun _ -> 2) () in
  Workload.Tcp_workload.start tcp;
  Sim.Engine.run_until engine 400.;
  Workload.Tcp_workload.stop tcp;
  (* Weighted differentiation across aggregates... *)
  let goodputs = Workload.Tcp_workload.aggregate_goodputs tcp in
  let g1 = float_of_int (List.assoc 1 goodputs) in
  let g2 = float_of_int (List.assoc 2 goodputs) in
  Alcotest.(check bool)
    (Printf.sprintf "aggregate 2 gets more (%.0f vs %.0f)" g2 g1)
    true (g2 > 1.3 *. g1);
  (* ...and near-equal sharing inside an aggregate. *)
  let m1 = float_of_int (Workload.Tcp_workload.goodput tcp ~flow:2 ~micro:1) in
  let m2 = float_of_int (Workload.Tcp_workload.goodput tcp ~flow:2 ~micro:2) in
  Alcotest.(check bool)
    (Printf.sprintf "intra-aggregate fair (%.0f vs %.0f)" m1 m2)
    true
    (Float.abs (m1 -. m2) /. Float.max m1 m2 < 0.2)

(* ------------------------------------------------------------------ *)
(* Tcp_direct *)

let test_tcp_direct_weighted_csfq () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.single_bottleneck ~engine ~weights:(fun i -> float_of_int i) 3
  in
  let csfq_params = { Csfq.Params.default with Csfq.Params.k_link = 0.5 } in
  let tcp = Workload.Tcp_direct.build ~csfq_params ~attach_csfq:true ~network () in
  Workload.Tcp_direct.start tcp;
  Sim.Engine.run_until engine 200.;
  Workload.Tcp_direct.stop tcp;
  let g flow = float_of_int (Workload.Tcp_direct.goodput tcp ~flow) in
  Alcotest.(check bool)
    (Printf.sprintf "weighted ordering (%.0f < %.0f < %.0f)" (g 1) (g 2) (g 3))
    true
    (g 1 < g 2 && g 2 < g 3);
  Alcotest.(check bool)
    (Printf.sprintf "weighted jain %.3f" (Workload.Tcp_direct.jain tcp))
    true
    (Workload.Tcp_direct.jain tcp > 0.95);
  (* Exact delivered-segment counts: any change to how TCP segments are
     addressed or forwarded shows up here before it moves the bounds
     above. *)
  Alcotest.(check (list (pair int int)))
    "pinned goodputs"
    [ (1, 15884); (2, 28353); (3, 37825) ]
    (Workload.Tcp_direct.goodputs tcp)

let test_tcp_direct_droptail_no_differentiation () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.single_bottleneck ~engine ~weights:(fun i -> float_of_int i) 3
  in
  let tcp = Workload.Tcp_direct.build ~network () in
  Workload.Tcp_direct.start tcp;
  Sim.Engine.run_until engine 200.;
  Workload.Tcp_direct.stop tcp;
  (* Without core support, TCP shares ~equally: flow 3 gets nowhere
     near its 3x weighted share. *)
  let g flow = float_of_int (Workload.Tcp_direct.goodput tcp ~flow) in
  Alcotest.(check bool)
    (Printf.sprintf "no weighted differentiation (%.0f vs %.0f)" (g 3) (g 1))
    true
    (g 3 < 2. *. g 1);
  (* The link is well utilized regardless. *)
  let total = g 1 +. g 2 +. g 3 in
  Alcotest.(check bool) "utilized" true (total /. 200. > 350.);
  Alcotest.(check (list (pair int int)))
    "pinned goodputs"
    [ (1, 28675); (2, 28592); (3, 28241) ]
    (Workload.Tcp_direct.goodputs tcp)

(* Audit every runtime invariant (Sim.Invariant) in all suites. *)
let () = Sim.Invariant.set_default true

let () =
  Alcotest.run "tcp_and_aggregates"
    [
      ( "tcp",
        [
          Alcotest.test_case "in-order transfer" `Quick test_tcp_in_order_transfer;
          Alcotest.test_case "slow start" `Quick test_tcp_slow_start_then_avoidance;
          Alcotest.test_case "fast retransmit" `Quick test_tcp_fast_retransmit_on_loss;
          Alcotest.test_case "timeout recovery" `Quick test_tcp_timeout_recovers_burst_loss;
          Alcotest.test_case "receiver reorders" `Quick test_tcp_receiver_reorders;
          Alcotest.test_case "duplicate segments" `Quick test_tcp_duplicate_segments_harmless;
        ] );
      ( "onoff",
        [
          Alcotest.test_case "toggles" `Quick test_onoff_toggles;
          Alcotest.test_case "stop" `Quick test_onoff_stop;
          Alcotest.test_case "pareto distribution" `Quick test_onoff_pareto_distribution;
          Alcotest.test_case "validation" `Quick test_onoff_validation;
        ] );
      ( "congestion_estimators",
        [
          Alcotest.test_case "linear" `Quick test_estimator_linear;
          Alcotest.test_case "ewma smooths" `Quick test_estimator_ewma_smooths;
          Alcotest.test_case "mm1 closed form" `Quick test_estimator_mm1_matches_closed_form;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "queue bound" `Quick test_aggregate_queue_bound;
          Alcotest.test_case "round robin" `Quick test_aggregate_round_robin;
          Alcotest.test_case "application limited" `Quick
            test_aggregate_application_limited;
          Alcotest.test_case "bad capacity" `Quick test_aggregate_rejects_bad_capacity;
        ] );
      ( "tcp_workload",
        [
          Alcotest.test_case "weighted aggregates" `Slow
            test_tcp_workload_weighted_aggregates;
        ] );
      ( "tcp_direct",
        [
          Alcotest.test_case "weighted csfq polices tcp" `Slow
            test_tcp_direct_weighted_csfq;
          Alcotest.test_case "droptail no differentiation" `Slow
            test_tcp_direct_droptail_no_differentiation;
        ] );
    ]
