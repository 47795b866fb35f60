type connection = {
  sender : Net.Tcp.Sender.t;
  receiver : Net.Tcp.Receiver.t;
}

type t = {
  network : Network.t;
  connections : (int * connection) list;  (* ascending flow id *)
}

let build ?(tcp_params = Net.Tcp.default_params) ?(csfq_params = Csfq.Params.default)
    ?(attach_csfq = false) ?(seed = 42) ~network () =
  let engine = network.Network.engine in
  let topology = network.Network.topology in
  let rng = Sim.Rng.create seed in
  if attach_csfq then
    List.iter
      (fun link ->
        ignore (Csfq.Core.attach ~params:csfq_params ~rng:(Sim.Rng.split rng) link))
      network.Network.core_links;
  let connections =
    List.map
      (fun flow ->
        let flow_id = flow.Net.Flow.id in
        let weight = flow.Net.Flow.weight in
        let ack_delay = Net.Topology.path_delay topology flow.Net.Flow.path in
        let sender_cell = ref None in
        let send_ack ackno =
          ignore
            (Sim.Engine.schedule engine ~delay:ack_delay (fun () ->
                 match !sender_cell with
                 | Some sender -> Net.Tcp.Sender.ack sender ackno
                 | None -> ()))
        in
        let receiver = Net.Tcp.Receiver.create ~send_ack in
        Net.Topology.set_flow_sink topology ~flow:flow_id (fun pkt ->
            Net.Tcp.Receiver.receive receiver pkt);
        let dst = (Net.Flow.egress flow).Net.Node.host in
        let first_link = Net.Flow.first_link flow topology in
        (* Ingress labelling shim: the edge router's only involvement is
           estimating the flow's rate and stamping the destination and
           the normalized label — no shaping, no buffering. TCP emits whole windows
           back to back, so the estimation constant must exceed the
           burst scale (an RTT), not the 100 ms used for smooth
           sources; otherwise labels spike during bursts and the core
           drop-storms the window (Stoica et al. discuss exactly this
           interaction). *)
        let k = Float.max csfq_params.Csfq.Params.k_flow (4. *. ack_delay) in
        let estimator = Csfq.Rate_estimator.create ~k in
        let transmit pkt =
          let now = Sim.Engine.now engine in
          let estimate = Csfq.Rate_estimator.update estimator ~now ~amount:1. in
          pkt.Net.Packet.dst <- dst;
          pkt.Net.Packet.floats.label <- estimate /. weight;
          Net.Link.send first_link pkt
        in
        let sender =
          Net.Tcp.Sender.create ~engine ~params:tcp_params ~flow:flow_id ~micro:1
            ~transmit ()
        in
        sender_cell := Some sender;
        (flow_id, { sender; receiver }))
      network.Network.flows
  in
  { network; connections }

let start t = List.iter (fun (_, c) -> Net.Tcp.Sender.start c.sender) t.connections

let stop t = List.iter (fun (_, c) -> Net.Tcp.Sender.stop c.sender) t.connections

let goodput t ~flow = Net.Tcp.Receiver.delivered (List.assoc flow t.connections).receiver

let goodputs t =
  List.map (fun (id, c) -> (id, Net.Tcp.Receiver.delivered c.receiver)) t.connections

let jain t =
  let rates =
    Array.of_list (List.map (fun (_, g) -> float_of_int g) (goodputs t))
  in
  let weights =
    Array.of_list
      (List.map (fun f -> f.Net.Flow.weight) t.network.Network.flows)
  in
  Fairness.Metrics.jain_index ~rates ~weights

let total_retransmits t =
  List.fold_left
    (fun acc (_, c) -> acc + Net.Tcp.Sender.retransmits c.sender)
    0 t.connections
