(* Flat all-float record so the activity stamp and the label in [emit]
   are unboxed in-place writes (mirrors Corelite.Edge): a mutable float
   field of the mixed record [t] would box a fresh float per packet. *)
type clock = { mutable at : float; mutable label : float }

type t = {
  topology : Net.Topology.t;
  flow : Net.Flow.t;
  trace : Sim.Trace.t;
  mutable source : Net.Source.t option;  (* set once in [create] *)
  (* Stamped into every packet, which goes to the path's first link
     (mirrors Corelite.Edge). *)
  dst_host : int;
  first_link : Net.Link.t;
  delays : Net.Flow.delays;  (* loss-report latency from each path link *)
  estimator : Rate_estimator.t;
  mutable pending_losses : int;
  mutable next_packet_id : int;
  mutable sent : int;
  mutable losses : int;
  mutable delivered : int;
  activity : clock;
      (* time of the last packet this agent emitted, and its label *)
  pool : Net.Packet.pool;  (* the topology's; [emit] allocates from it *)
  delay : Sim.Stats.Welford.t;  (* end-to-end delay of delivered packets *)
}

let source t = match t.source with Some s -> s | None -> assert false

let flow t = t.flow

let rate t = Net.Source.rate (source t)

let running t = Net.Source.running (source t)

let delivered t = t.delivered

let mean_delay t = Sim.Stats.Welford.mean t.delay

let sent t = t.sent

let last_activity t = t.activity.at

let losses t = t.losses

let current_label t = t.activity.label

let loss_delay t ~link_id = Net.Flow.delay_to t.delays ~link_id

let collect_losses t () =
  let m = t.pending_losses in
  t.pending_losses <- 0;
  m

let emit t ~now =
  let estimated = Rate_estimator.update t.estimator ~now ~amount:1. in
  t.activity.label <- estimated /. t.flow.Net.Flow.weight;
  t.next_packet_id <- t.next_packet_id + 1;
  let pkt =
    Net.Packet.alloc t.pool ~id:t.next_packet_id ~flow:t.flow.Net.Flow.id ~created:now
  in
  pkt.Net.Packet.dst <- t.dst_host;
  pkt.Net.Packet.floats.label <- t.activity.label;
  t.sent <- t.sent + 1;
  t.activity.at <- now;
  Net.Link.send t.first_link pkt

let create ~params ~topology ~flow ?(floor = 0.) ?(epoch_offset = 0.) () =
  let source_params = Net.Source.with_floor params.Params.source floor in
  let engine = Net.Topology.engine topology in
  let t =
    {
      topology;
      flow;
      trace = Sim.Engine.trace engine;
      source = None;
      dst_host = (Net.Flow.egress flow).Net.Node.host;
      first_link = Net.Flow.first_link flow topology;
      delays = Net.Flow.delays flow topology;
      estimator = Rate_estimator.create ~k:params.Params.k_flow;
      pending_losses = 0;
      next_packet_id = 0;
      sent = 0;
      losses = 0;
      delivered = 0;
      activity = { at = Sim.Engine.now engine; label = 0. };
      pool = Net.Topology.pool topology;
      delay = Sim.Stats.Welford.create ();
    }
  in
  t.source <-
    Some
      (Net.Source.create ~engine ~id:flow.Net.Flow.id ~epoch_offset
         ~params:source_params
         ~emit:(fun ~now -> emit t ~now)
         ~collect:(collect_losses t) ());
  let m = Sim.Engine.metrics engine in
  (* [Metrics.probe] drops probes while auto-probes are off (large
     generated topologies turn them off), so build no name or closure
     for them then. *)
  if Sim.Metrics.auto_probes m then begin
    let pfx = Printf.sprintf "csfq.flow.%d." flow.Net.Flow.id in
    Sim.Metrics.probe m (pfx ^ "sent") ~help:"packets injected at the ingress"
      (fun () -> float_of_int t.sent);
    Sim.Metrics.probe m (pfx ^ "delivered") ~help:"packets that reached the sink"
      (fun () -> float_of_int t.delivered);
    Sim.Metrics.probe m (pfx ^ "losses") ~help:"loss signals, the CSFQ feedback"
      (fun () -> float_of_int t.losses);
    Sim.Metrics.probe m (pfx ^ "rate") ~help:"current allowed rate bg, pkt/s"
      (fun () -> rate t)
  end;
  t

let start t =
  let engine = Net.Topology.engine t.topology in
  (* The packet's last reader. *)
  let sink pkt =
    t.delivered <- t.delivered + 1;
    Sim.Stats.Welford.add t.delay
      (Sim.Engine.now engine -. pkt.Net.Packet.floats.created);
    Net.Packet.release pkt
  in
  Net.Topology.set_flow_sink t.topology ~flow:t.flow.Net.Flow.id sink;
  t.pending_losses <- 0;
  Net.Source.start (source t)

let stop t = Net.Source.stop (source t)

let set_backlogged t backlogged = Net.Source.set_active (source t) backlogged

let note_loss t =
  if running t then begin
    t.losses <- t.losses + 1;
    t.pending_losses <- t.pending_losses + 1;
    (* b = -1: the congestion signal is a local loss observation, not
       feedback from an identified core link. *)
    if Sim.Trace.want t.trace Sim.Trace.Feedback_recv then
      Sim.Trace.record t.trace
        ~time:(Sim.Engine.now (Net.Topology.engine t.topology))
        Sim.Trace.Feedback_recv ~a:t.flow.Net.Flow.id ~b:(-1) ~x:0. ~y:0.;
    Net.Source.signal_congestion (source t)
  end
