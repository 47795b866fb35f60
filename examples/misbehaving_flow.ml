(* Policing a misbehaving (unresponsive) flow.

   Flow 1 is a firehose that ignores all congestion signals and blasts
   at 450 pkt/s into a 500 pkt/s bottleneck shared with two adaptive
   flows (fair share ~166.7 pkt/s each). Under weighted CSFQ the core's
   probabilistic dropping polices the firehose's goodput toward its
   share. Under Corelite the stateless selector aims *all* marker
   feedback at the flow whose normalized rate exceeds the running
   average, so the compliant flows are never throttled below their
   shares — but actual enforcement of the deaf flow belongs to its
   ingress edge shaper ("drop packets from ill behaved flows at the
   edges of the network"), absent here by construction.

   Run with: dune exec examples/misbehaving_flow.exe *)

let duration = 120.

let run scheme ~corelite_markers =
  let engine = Sim.Engine.create () in
  let network = Workload.Network.single_bottleneck ~engine ~weights:(fun _ -> 1.) 3 in
  let blaster =
    Workload.Adversary.attach ~network ~flow:1 ~peak:450. ~duty:1. ~period:1.
      ~corelite_markers ()
  in
  let result =
    Workload.Runner.run ~scheme ~network
      ~schedule:[ (0., Workload.Runner.Start 2); (0., Workload.Runner.Start 3) ]
      ~duration ()
  in
  (result, blaster)

let report name (result, blaster) =
  Printf.printf "\n== %s ==\n" name;
  Printf.printf "firehose offered rate        : 450 pkt/s\n";
  Printf.printf "firehose goodput             : %.1f pkt/s (%.0f%% survives)\n"
    (float_of_int (Workload.Adversary.delivered blaster) /. duration)
    (100. *. Workload.Adversary.survival blaster);
  List.iter
    (fun flow ->
      Printf.printf "adaptive flow %d allowed rate : %.1f pkt/s\n" flow
        (Workload.Runner.mean_rate result ~flow ~from:90. ~until:duration))
    [ 2; 3 ];
  Printf.printf "core drops                   : %d\n" result.Workload.Runner.core_drops

let () =
  report "weighted CSFQ (drops police the firehose)"
    (run (Workload.Runner.Csfq Csfq.Params.default) ~corelite_markers:false);
  report "Corelite (selective feedback shields compliant flows)"
    (run (Workload.Runner.Corelite Corelite.Params.default) ~corelite_markers:true);
  report "plain DropTail (no protection at all)"
    (run (Workload.Runner.Plain Csfq.Params.default) ~corelite_markers:false);
  Printf.printf
    "\nCSFQ polices the firehose's goodput in the core; Corelite keeps\n\
     the compliant flows near their shares and leaves enforcement of\n\
     the misbehaving flow to its (here absent) ingress edge shaper;\n\
     plain DropTail lets the firehose starve everyone.\n"
