type connection = {
  sender : Net.Tcp.Sender.t;
  receiver : Net.Tcp.Receiver.t;
}

type t = {
  network : Network.t;
  aggregates : (int, Corelite.Aggregate.t) Hashtbl.t;
  connections : (int * int, connection) Hashtbl.t;  (* (flow, micro) *)
}

let build ~network ~micro_flows () =
  let engine = network.Network.engine in
  let topology = network.Network.topology in
  let params = Corelite.Params.default in
  let rng = Sim.Rng.create 42 in
  let aggregates = Hashtbl.create 8 in
  let connections = Hashtbl.create 32 in
  let agents = Hashtbl.create 8 in
  List.iter
    (fun flow ->
      let flow_id = flow.Net.Flow.id in
      let epoch_offset =
        Sim.Rng.float rng params.Corelite.Params.source.Net.Source.epoch
      in
      let aggregate =
        Corelite.Aggregate.create ~params ~topology ~flow ~epoch_offset
          ~queue_capacity:128 ()
      in
      Hashtbl.add aggregates flow_id aggregate;
      Hashtbl.add agents flow_id (Corelite.Aggregate.edge aggregate);
      (* ACKs ride the control plane with the full reverse-path
         propagation delay of the flow. *)
      let ack_delay = Net.Topology.path_delay topology flow.Net.Flow.path in
      for micro = 1 to micro_flows flow_id do
        (* Tie the sender/receiver pair through the aggregate. The
           sender reference cell breaks the construction cycle:
           receiver -> ack channel -> sender -> transmit -> aggregate. *)
        let sender_cell = ref None in
        let send_ack ackno =
          Sim.Engine.schedule engine ~delay:ack_delay (fun () ->
              match !sender_cell with
              | Some sender -> Net.Tcp.Sender.ack sender ackno
              | None -> ())
        in
        let receiver = Net.Tcp.Receiver.create ~send_ack in
        let transmit pkt =
          (* Lost submissions (full edge queue) are recovered by TCP. *)
          ignore (Corelite.Aggregate.submit aggregate pkt)
        in
        let sender =
          Net.Tcp.Sender.create ~engine ~params:Net.Tcp.default_params ~flow:flow_id
            ~micro ~transmit ()
        in
        sender_cell := Some sender;
        Corelite.Aggregate.set_consumer aggregate ~micro (fun pkt ->
            Net.Tcp.Receiver.receive receiver pkt);
        Hashtbl.add connections (flow_id, micro) { sender; receiver }
      done)
    network.Network.flows;
  (* The cores live on in the hooks they install on the core links;
     nothing reads the deployment afterwards. *)
  ignore
    (Corelite.Deployment.of_agents ~params ~rng ~topology ~agents
       ~core_links:network.Network.core_links ());
  { network; aggregates; connections }

let start t =
  Hashtbl.iter (fun _ a -> Corelite.Aggregate.start a) t.aggregates;
  Hashtbl.iter (fun _ c -> Net.Tcp.Sender.start c.sender) t.connections

let stop t =
  Hashtbl.iter (fun _ c -> Net.Tcp.Sender.stop c.sender) t.connections;
  Hashtbl.iter (fun _ a -> Corelite.Aggregate.stop a) t.aggregates

let goodput t ~flow ~micro =
  match Hashtbl.find_opt t.connections (flow, micro) with
  | Some c -> Net.Tcp.Receiver.delivered c.receiver
  | None -> raise Not_found

let aggregate_goodputs t =
  List.map
    (fun flow ->
      let flow_id = flow.Net.Flow.id in
      let total =
        Hashtbl.fold
          (fun (f, _) c acc ->
            if f = flow_id then acc + Net.Tcp.Receiver.delivered c.receiver else acc)
          t.connections 0
      in
      (flow_id, total))
    t.network.Network.flows

let total_retransmits t =
  Hashtbl.fold
    (fun _ c acc -> acc + Net.Tcp.Sender.retransmits c.sender)
    t.connections 0

let total_edge_drops t =
  Hashtbl.fold (fun _ a acc -> acc + Corelite.Aggregate.edge_drops a) t.aggregates 0

let jain t =
  let goodputs = aggregate_goodputs t in
  let rates =
    Array.of_list (List.map (fun (_, g) -> float_of_int g) goodputs)
  in
  let weights =
    Array.of_list
      (List.map
         (fun (id, _) -> (Network.flow t.network id).Net.Flow.weight)
         goodputs)
  in
  Fairness.Metrics.jain_index ~rates ~weights
