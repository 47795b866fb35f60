type t = {
  engine : Sim.Engine.t;
  topology : Net.Topology.t;
  flows : Net.Flow.t list;
  core_links : Net.Link.t list;
}

let flow t id =
  match List.find_opt (fun f -> f.Net.Flow.id = id) t.flows with
  | Some f -> f
  | None -> raise Not_found

let link_capacities t =
  List.map
    (fun link -> (link.Net.Link.id, Net.Link.capacity_pps link))
    (Net.Topology.links t.topology)

let expected_rates t ~active =
  let member : (int, unit) Hashtbl.t = Hashtbl.create (List.length active) in
  List.iter (fun id -> Hashtbl.replace member id ()) active;
  let demands =
    List.filter_map
      (fun f ->
        if Hashtbl.mem member f.Net.Flow.id then
          Some
            (Fairness.Maxmin.demand ~flow:f.Net.Flow.id ~weight:f.Net.Flow.weight
               ~links:(List.map (fun l -> l.Net.Link.id) (Net.Flow.links f t.topology))
               ())
        else None)
      t.flows
  in
  Fairness.Maxmin.solve ~capacities:(link_capacities t) ~demands

let default_bandwidth = 4_000_000.

let default_delay = 0.04

(* Entry and exit core router (1-based) for each flow of Topology 1. *)
let topology1_span flow_id =
  match flow_id with
  | n when n >= 1 && n <= 5 -> (1, 2)
  | n when n >= 6 && n <= 8 -> (1, 3)
  | 9 | 10 -> (1, 4)
  | 11 | 12 -> (2, 3)
  | n when n >= 13 && n <= 15 -> (2, 4)
  | n when n >= 16 && n <= 20 -> (3, 4)
  | n -> invalid_arg (Printf.sprintf "Network.topology1: unknown flow %d" n)

let chain ~engine ?(bandwidth = default_bandwidth) ?(delay = default_delay)
    ?(queue_capacity = 40) ?core_qdisc ~cores:n_cores ~specs () =
  if n_cores < 2 then invalid_arg "Network.chain: need at least two cores";
  let topology = Net.Topology.create engine in
  let qdisc () = Net.Qdisc.droptail ~capacity:queue_capacity in
  let core_qdisc = match core_qdisc with Some f -> f | None -> qdisc in
  let cores =
    Array.init n_cores (fun i ->
        Net.Topology.add_node topology ~kind:Net.Node.Core (Printf.sprintf "C%d" (i + 1)))
  in
  let core_links =
    List.init (n_cores - 1) (fun i ->
        Net.Topology.add_link topology ~src:cores.(i) ~dst:cores.(i + 1) ~bandwidth
          ~delay ~qdisc:(core_qdisc ()))
  in
  let flows =
    List.map
      (fun (flow_id, weight, entry, exit) ->
        let ingress =
          Net.Topology.add_node topology ~kind:Net.Node.Edge
            (Printf.sprintf "E%d" flow_id)
        in
        let egress =
          Net.Topology.add_node topology ~kind:Net.Node.Edge
            (Printf.sprintf "D%d" flow_id)
        in
        ignore
          (Net.Topology.add_link topology ~src:ingress ~dst:cores.(entry - 1)
             ~bandwidth ~delay ~qdisc:(qdisc ()));
        ignore
          (Net.Topology.add_link topology ~src:cores.(exit - 1) ~dst:egress ~bandwidth
             ~delay ~qdisc:(qdisc ()));
        let core_path =
          List.init (exit - entry + 1) (fun i -> cores.(entry - 1 + i))
        in
        Net.Flow.make ~id:flow_id ~weight ~path:((ingress :: core_path) @ [ egress ]))
      specs
  in
  Net.Topology.route_paths topology (List.map (fun f -> f.Net.Flow.path) flows);
  { engine; topology; flows; core_links }

let topology1 ~engine ?(bandwidth = default_bandwidth) ?(delay = default_delay)
    ?(queue_capacity = 40) ?core_qdisc ?(flow_ids = List.init 20 (fun i -> i + 1))
    ~weights () =
  let specs =
    List.map
      (fun id ->
        let entry, exit = topology1_span id in
        (id, weights id, entry, exit))
      flow_ids
  in
  chain ~engine ~bandwidth ~delay ~queue_capacity ?core_qdisc ~cores:4 ~specs ()

let of_topo ~engine ?(bandwidth = default_bandwidth) ?(delay = default_delay)
    ?(queue_capacity = 40) ?core_qdisc ~graph ~fib ~flows:pop () =
  let topology = Net.Topology.create engine in
  let qdisc () = Net.Qdisc.droptail ~capacity:queue_capacity in
  let core_qdisc = match core_qdisc with Some f -> f | None -> qdisc in
  let n_hosts = Topo.Graph.n_hosts graph in
  let nodes =
    Array.init (Topo.Graph.n_nodes graph) (fun v ->
        let kind =
          match Topo.Graph.kind graph v with
          | Topo.Graph.Host -> Net.Node.Edge
          | Topo.Graph.Edge_switch | Topo.Graph.Agg_switch
          | Topo.Graph.Core_switch | Topo.Graph.Router ->
            Net.Node.Core
        in
        Net.Topology.add_node topology ~kind (Topo.Graph.label graph v))
  in
  (* Net link ids equal graph link ids (same creation order). Every
     link gets [core_qdisc]: on a generated topology any link — access
     links included — can be the bottleneck, and the DRR ablation must
     shape wherever congestion lives. *)
  let links =
    Array.init (Topo.Graph.n_links graph) (fun l ->
        Net.Topology.add_link topology
          ~src:nodes.(Topo.Graph.link_src graph l)
          ~dst:nodes.(Topo.Graph.link_dst graph l)
          ~bandwidth ~delay ~qdisc:(core_qdisc ()))
  in
  let dispatch = Net.Topology.sink_dispatcher topology in
  (* Link ids run in (src, dst) order, so a node's out-links are one
     run of [links], [first.(v)] to [first.(v + 1) - 1]: they are its
     ports, and link [l] out of [v] is port [l - first.(v)]. *)
  let first = Array.make (Array.length nodes + 1) 0 in
  Array.iteri (fun v _ -> first.(v + 1) <- first.(v) + Topo.Graph.out_degree graph v) nodes;
  Array.iteri
    (fun v node ->
      (* Agents hand packets straight to a host's first link, so a
         host forwards nothing and gets no row. *)
      (match Topo.Graph.kind graph v with
      | Topo.Graph.Host -> ()
      | Topo.Graph.Edge_switch | Topo.Graph.Agg_switch | Topo.Graph.Core_switch
      | Topo.Graph.Router ->
        Net.Node.set_table node
          ~ports:(Array.sub links first.(v) (first.(v + 1) - first.(v)))
          ~span:n_hosts
          (fun h ->
            let l = Topo.Fib.next_hop fib ~node:v ~host:h in
            if l < 0 then -1 else l - first.(v)));
      let host = Topo.Graph.host_of_node graph v in
      if host >= 0 then Net.Node.set_host node ~host dispatch)
    nodes;
  let flows =
    List.init (Topo.Flows.count pop) (fun i ->
        let path =
          List.map
            (fun v -> nodes.(v))
            (Topo.Fib.route graph fib ~src_host:pop.Topo.Flows.src.(i)
               ~dst_host:pop.Topo.Flows.dst.(i))
        in
        Net.Flow.make ~id:(i + 1) ~weight:pop.Topo.Flows.weight.(i) ~path)
  in
  (* Police every link: generated flows may bottleneck anywhere, most
     often on their access links. *)
  { engine; topology; flows; core_links = Array.to_list links }

let single_bottleneck ~engine ?(bandwidth = default_bandwidth) ?(delay = default_delay)
    ?(queue_capacity = 40) ?core_qdisc ~weights n =
  if n <= 0 then invalid_arg "Network.single_bottleneck: need at least one flow";
  let specs = List.init n (fun i -> (i + 1, weights (i + 1), 1, 2)) in
  chain ~engine ~bandwidth ~delay ~queue_capacity ?core_qdisc ~cores:2 ~specs ()
