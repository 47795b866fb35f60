type t = {
  engine : Sim.Engine.t;
  mutable nodes_rev : Node.t list;
  mutable links_rev : Link.t list;
  by_name : (string, Node.t) Hashtbl.t;
  link_index : (int * int, Link.t) Hashtbl.t;
  mutable next_node_id : int;
  mutable next_link_id : int;
  mutable next_host : int;  (* next host index [route_paths] hands out *)
  (* Flat flow-id-indexed delivery table: host nodes dispatch arrived
     packets through here, so egress delivery is one array read and a
     call of the closure it holds. Empty slots hold [no_sink]. *)
  mutable flow_sinks : (Packet.t -> unit) array;
  pool : Packet.pool;  (* the packets the edge agents synthesize *)
}

let create engine =
  {
    engine;
    nodes_rev = [];
    links_rev = [];
    by_name = Hashtbl.create 16;
    link_index = Hashtbl.create 16;
    next_node_id = 0;
    next_link_id = 0;
    next_host = 0;
    flow_sinks = [||];
    pool = Packet.create_pool ();
  }

let engine t = t.engine

let pool t = t.pool

let add_node t ~kind name =
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Topology.add_node: duplicate node " ^ name);
  let node = Node.create ~id:t.next_node_id ~name ~kind in
  t.next_node_id <- t.next_node_id + 1;
  t.nodes_rev <- node :: t.nodes_rev;
  Hashtbl.add t.by_name name node;
  node

let add_link t ~src ~dst ~bandwidth ~delay ~qdisc =
  let key = (src.Node.id, dst.Node.id) in
  if Hashtbl.mem t.link_index key then
    invalid_arg
      (Printf.sprintf "Topology.add_link: duplicate link %s->%s" src.Node.name
         dst.Node.name);
  let name = src.Node.name ^ "->" ^ dst.Node.name in
  let link =
    Link.create ~engine:t.engine ~id:t.next_link_id ~name ~src:src.Node.id
      ~dst:dst.Node.id ~bandwidth ~delay ~qdisc ()
  in
  t.next_link_id <- t.next_link_id + 1;
  link.Link.deliver <- (fun pkt -> Node.receive dst pkt);
  t.links_rev <- link :: t.links_rev;
  Hashtbl.add t.link_index key link;
  link

let nodes t = List.rev t.nodes_rev

let links t = List.rev t.links_rev

let find_link t ~src ~dst = Hashtbl.find_opt t.link_index (src.Node.id, dst.Node.id)

let path_links t path =
  let rec hops = function
    | a :: (b :: _ as rest) ->
      let link =
        match find_link t ~src:a ~dst:b with
        | Some link -> link
        | None ->
          failwith
            (Printf.sprintf "Topology.path_links: no link %s->%s" a.Node.name
               b.Node.name)
      in
      link :: hops rest
    | [ _ ] | [] -> []
  in
  hops path

let path_delay t path =
  List.fold_left (fun acc link -> acc +. link.Link.delay) 0. (path_links t path)

(* The sink of every flow with none installed, inside the table or
   past its end. *)
let no_sink pkt =
  failwith (Printf.sprintf "Topology: no sink installed for flow %d" pkt.Packet.flow)

let set_flow_sink t ~flow sink =
  if flow < 0 then invalid_arg "Topology.set_flow_sink: negative flow id";
  let n = Array.length t.flow_sinks in
  if flow >= n then begin
    let n' = ref (Stdlib.max 64 (2 * n)) in
    while flow >= !n' do
      n' := 2 * !n'
    done;
    let grown = Array.make !n' no_sink in
    Array.blit t.flow_sinks 0 grown 0 n;
    t.flow_sinks <- grown
  end;
  t.flow_sinks.(flow) <- sink

let[@corelite.hot] deliver_to_sink t pkt =
  let flow = pkt.Packet.flow in
  let sinks = t.flow_sinks in
  if flow >= 0 && flow < Array.length sinks then (Array.unsafe_get sinks flow) pkt
  else no_sink pkt

let sink_dispatcher t = fun pkt -> deliver_to_sink t pkt

(* Hosts are numbered first, so each table grows at most once, to span
   every host numbered so far. *)
let route_paths t paths =
  let dispatch = sink_dispatcher t in
  let routes =
    List.map
      (fun path ->
        let egress =
          match List.rev path with
          | egress :: _ :: _ -> egress
          | [ _ ] | [] -> invalid_arg "Topology.route_paths: path needs >= 2 nodes"
        in
        if egress.Node.host < 0 then begin
          Node.set_host egress ~host:t.next_host dispatch;
          t.next_host <- t.next_host + 1
        end;
        (egress.Node.host, List.tl path, List.tl (path_links t path)))
      paths
  in
  (* Interior nodes only: the ingress hands its packets straight to the
     path's first link. *)
  let rec fill host nodes links =
    match (nodes, links) with
    | node :: nodes, link :: links ->
      (match Node.route node ~host with
      | Some other when other != link ->
        failwith
          (Printf.sprintf
             "Topology.route_paths: node %s reaches host %d on two links (%s, %s)"
             node.Node.name host other.Link.name link.Link.name)
      | Some _ | None -> Node.set_route node ~span:t.next_host ~host link);
      fill host nodes links
    | _ -> ()
  in
  List.iter (fun (host, nodes, links) -> fill host nodes links) routes
