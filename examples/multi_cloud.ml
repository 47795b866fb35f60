(* Chaining two network clouds (the paper's inter-domain future work).

   Three flows cross cloud A and then cloud B, each cloud running its
   own independent Corelite control loop. In cloud A the flows hold
   weights 1:2:3 of a 500 pkt/s bottleneck (~83/167/250); in cloud B
   they compete with equal weights against a purely local flow 4
   (equal share 125 each). End to end a flow can only receive the
   minimum of its per-cloud allocations.

   Two hand-off policies are compared:
   - oblivious: each cloud optimizes alone; cloud A keeps pushing its
     larger shares into the boundary buffer and the excess is dropped;
   - backpressure: a full hand-off buffer feeds back to cloud A's edge
     exactly like core marker feedback, so A stops overdriving flows
     that B grants less — and A's freed capacity is redistributed. The
     allocation approaches the global max-min (125 pkt/s for every
     flow) with two orders of magnitude fewer boundary drops.

   Run with: dune exec examples/multi_cloud.exe *)

let duration = 500.

let window = 150.

let run ~backpressure =
  let engine = Sim.Engine.create () in
  (* One engine, two clouds; flows 1-3 exist in both, flow 4 only in B. *)
  let cloud_a =
    Workload.Network.single_bottleneck ~engine ~weights:(fun i -> float_of_int i) 3
  in
  let cloud_b = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 4 in
  let chain = Workload.Multi_cloud.build ~backpressure ~cloud_a ~cloud_b () in
  Workload.Multi_cloud.start chain;
  let snapshot = Hashtbl.create 4 in
  Sim.Engine.schedule_at engine ~time:(duration -. window) (fun () ->
      for flow = 1 to 3 do
        Hashtbl.replace snapshot flow (Workload.Multi_cloud.delivered chain ~flow)
      done);
  Sim.Engine.run_until engine duration;
  Workload.Multi_cloud.stop chain;

  Printf.printf "\n== hand-off policy: %s ==\n"
    (if backpressure then "backpressure" else "oblivious");
  let share_a = Workload.Network.expected_rates cloud_a ~active:[ 1; 2; 3 ] in
  let share_b = Workload.Network.expected_rates cloud_b ~active:[ 1; 2; 3; 4 ] in
  Printf.printf "flow  cloud A share  cloud B share  end-to-end  boundary drops\n";
  for flow = 1 to 3 do
    let steady =
      float_of_int
        (Workload.Multi_cloud.delivered chain ~flow
        - Option.value ~default:0 (Hashtbl.find_opt snapshot flow))
      /. window
    in
    Printf.printf "%4d  %13.1f  %13.1f  %10.1f  %14d\n" flow (List.assoc flow share_a)
      (List.assoc flow share_b) steady
      (Workload.Multi_cloud.handoff_drops chain ~flow)
  done;
  Printf.printf "flow 4 (local to B) allowed rate: %.1f\n"
    (Corelite.Edge.rate (Workload.Multi_cloud.local_agent chain ~flow:4))

let () =
  run ~backpressure:false;
  run ~backpressure:true;
  Printf.printf
    "\nGlobal max-min across both clouds would give every flow 125 pkt/s;\n\
     backpressure approaches it without any shared inter-domain state.\n"
