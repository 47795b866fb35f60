(* Golden digest of the water-filling reference: solve three generated
   populations with Fairness.Maxmin.solve and print, per population, the
   flow count and the MD5 of every rate printed with %h (the exact
   bits). dune runtest diffs the output against
   test/golden/maxmin.digest, so a solver change that moves any rate by
   one ulp fails the build.

   The populations are the scale ladder's: fat-tree k=8 and the AS graph
   (n=512, m=2) with 10^4 flows each, built as Workload.Scale builds
   them, plus the fat-tree again with a 1 pkt/s floor on every seventh
   flow. *)

let solve_population ~name ~label ~graph ~floors =
  let engine = Sim.Engine.create () in
  let fib = Topo.Fib.compute graph in
  let flows = Topo.Flows.generate ~seed:42 ~label ~graph ~n:10_000 ~max_weight:4 () in
  let network = Workload.Network.of_topo ~engine ~graph ~fib ~flows () in
  let demands =
    List.map
      (fun f ->
        let id = f.Net.Flow.id in
        Fairness.Maxmin.demand
          ~floor:(if floors && id mod 7 = 0 then 1. else 0.)
          ~flow:id ~weight:f.Net.Flow.weight
          ~links:
            (List.map
               (fun l -> l.Net.Link.id)
               (Net.Flow.links f network.Workload.Network.topology))
          ())
      network.Workload.Network.flows
  in
  let rates =
    Fairness.Maxmin.solve
      ~capacities:(Workload.Network.link_capacities network)
      ~demands
  in
  let buf = Buffer.create (32 * List.length rates) in
  List.iter (fun (id, r) -> Printf.bprintf buf "%d %h\n" id r) rates;
  Printf.printf "%-22s flows %d  md5 %s\n" name (List.length rates)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  let fattree = Topo.Fattree.build 8 in
  solve_population ~name:"fattree-k8/1e4" ~label:"maxmin/fattree-k8" ~graph:fattree
    ~floors:false;
  solve_population ~name:"as-n512-m2/1e4" ~label:"maxmin/as-n512-m2"
    ~graph:(Topo.Asgraph.build ~seed:42 ~label:"maxmin/as-n512-m2/graph" ~nodes:512 ~m:2 ())
    ~floors:false;
  solve_population ~name:"fattree-k8/1e4+floors" ~label:"maxmin/fattree-k8" ~graph:fattree
    ~floors:true
