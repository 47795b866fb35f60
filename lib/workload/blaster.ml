type t = {
  timer : Sim.Engine.handle;
  sent : int ref;
  delivered : int ref;
}

let attach ~network ~flow ~rate ?(corelite_markers = false) () =
  if rate <= 0. then invalid_arg "Blaster.attach: rate must be positive";
  let engine = network.Network.engine in
  let flow_record = Network.flow network flow in
  let delivered = ref 0 in
  Net.Topology.set_flow_sink network.Network.topology ~flow (fun _ -> incr delivered);
  let dst = (Net.Flow.egress flow_record).Net.Node.host in
  let first_link = Net.Flow.first_link flow_record network.Network.topology in
  let estimator = Csfq.Rate_estimator.create ~k:0.1 in
  let weight = flow_record.Net.Flow.weight in
  let normalized = rate /. weight in
  let seq = ref 0 in
  let sent = ref 0 in
  let emit () =
    incr seq;
    let now = Sim.Engine.now engine in
    let estimate = Csfq.Rate_estimator.update estimator ~now ~amount:1. in
    let marker =
      if corelite_markers then
        Some
          {
            Net.Packet.edge_id = (Net.Flow.ingress flow_record).Net.Node.id;
            flow_id = flow;
            normalized_rate = normalized;
          }
      else None
    in
    let pkt = Net.Packet.make ~id:!seq ~flow ?marker ~created:now () in
    pkt.Net.Packet.dst <- dst;
    pkt.Net.Packet.label <- estimate /. weight;
    incr sent;
    Net.Link.send first_link pkt
  in
  let timer = Sim.Engine.every engine ~period:(1. /. rate) emit in
  { timer; sent; delivered }

let stop t = Sim.Engine.cancel t.timer

let delivered t = !(t.delivered)

let sent t = !(t.sent)

let survival t =
  if !(t.sent) = 0 then 1. else float_of_int !(t.delivered) /. float_of_int !(t.sent)
