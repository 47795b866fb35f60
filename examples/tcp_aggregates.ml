(* TCP micro-flows inside shaped edge-to-edge aggregates.

   Two aggregates share one 4 Mbps bottleneck with rate weights 1 and 2;
   each carries three TCP bulk transfers submitted by end hosts at the
   ingress edge. Corelite allocates the aggregates 167 and 333 pkt/s;
   inside each aggregate the edge's round-robin shaper splits the rate
   evenly across the TCP connections — per-flow weighted fairness for
   traffic that is itself closed-loop.

   Run with: dune exec examples/tcp_aggregates.exe *)

let duration = 400.

let steady_from = 300.

let () =
  let engine = Sim.Engine.create () in
  let network =
    Workload.Network.single_bottleneck ~engine ~weights:(fun i -> float_of_int i) 2
  in
  let tcp = Workload.Tcp_workload.build ~network ~micro_flows:(fun _ -> 3) () in
  Workload.Tcp_workload.start tcp;
  (* Snapshot deliveries at the start of the steady window; report the
     goodput over [steady_from, duration] (the aggregate rate ramps
     +2 pkt/s per second from a cold start, so the early run is all
     climb). *)
  let snapshot = Hashtbl.create 8 in
  Sim.Engine.schedule_at engine ~time:steady_from (fun () ->
      List.iter
        (fun flow ->
          for micro = 1 to 3 do
            Hashtbl.replace snapshot (flow, micro)
              (Workload.Tcp_workload.goodput tcp ~flow ~micro)
          done)
        [ 1; 2 ]);
  Sim.Engine.run_until engine duration;
  Workload.Tcp_workload.stop tcp;
  let window = duration -. steady_from in
  let steady_goodput ~flow ~micro =
    let total = Workload.Tcp_workload.goodput tcp ~flow ~micro in
    let before = Option.value ~default:0 (Hashtbl.find_opt snapshot (flow, micro)) in
    float_of_int (total - before) /. window
  in

  let reference = Workload.Network.expected_rates network ~active:[ 1; 2 ] in
  Printf.printf "aggregate  weight  goodput (pkt/s)  corelite share\n";
  List.iter
    (fun flow ->
      let goodput =
        steady_goodput ~flow ~micro:1 +. steady_goodput ~flow ~micro:2
        +. steady_goodput ~flow ~micro:3
      in
      Printf.printf "%9d  %6.0f  %15.1f  %14.1f\n" flow
        (Workload.Network.flow network flow).Net.Flow.weight goodput
        (List.assoc flow reference))
    [ 1; 2 ];
  Printf.printf "\nper-connection goodput inside each aggregate (pkt/s):\n";
  List.iter
    (fun flow ->
      Printf.printf "  aggregate %d:" flow;
      for micro = 1 to 3 do
        Printf.printf "  tcp%d=%.1f" micro (steady_goodput ~flow ~micro)
      done;
      print_newline ())
    [ 1; 2 ];
  Printf.printf "\nweighted fairness of aggregates (Jain): %.4f\n"
    (Workload.Tcp_workload.jain tcp);
  Printf.printf "TCP retransmissions: %d, edge-queue drops: %d\n"
    (Workload.Tcp_workload.total_retransmits tcp)
    (Workload.Tcp_workload.total_edge_drops tcp)
