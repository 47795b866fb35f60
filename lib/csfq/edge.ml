(* The floats a packet reads and writes, in one all-float block (as
   Corelite.Edge's): the flow's weight and the last label, a store per
   packet that a float field of the mixed record [t] would box. *)
type floats = { weight : float; mutable label : float }

(* The fields [emit] reads come first, in order; a packet reads
   neither [Net.Flow.t] nor a boxed float. *)
type t = {
  clock : Sim.Engine.clock;
  estimator : Rate_estimator.t;
  floats : floats;
  mutable next_packet_id : int;
  pool : Net.Packet.pool;  (* the topology's; [emit] allocates from it *)
  flow_id : int;
  (* Stamped into every packet, which goes to the path's first link
     (mirrors Corelite.Edge). *)
  dst_host : int;
  mutable sent : int;
  first_link : Net.Link.t;
  source : Net.Source.t;
  trace : Sim.Trace.t;
  topology : Net.Topology.t;
  (* Built by [create], installed by [start]; it closes over only
     what a delivery updates: [delay] and the clock view. *)
  sink : Net.Packet.t -> unit;
  delays : Net.Flow.delays;  (* loss-report latency from each path link *)
  mutable pending_losses : int;
  mutable losses : int;
  delay : Sim.Stats.Welford.t;  (* end-to-end delay of delivered packets *)
}

let rate t = Net.Source.rate t.source

let running t = Net.Source.running t.source

let delivered t = Sim.Stats.Welford.count t.delay

let mean_delay t = Sim.Stats.Welford.mean t.delay

let sent t = t.sent

let last_activity t = Net.Source.last_sent t.source

let losses t = t.losses

let current_label t = t.floats.label

let loss_delay t ~link_id = Net.Flow.delay_to t.delays ~link_id

let collect_losses t () =
  let m = t.pending_losses in
  t.pending_losses <- 0;
  m

let[@corelite.hot] emit t () =
  let now = t.clock.Sim.Engine.time in
  Rate_estimator.update t.estimator ~now ~amount:1.;
  t.floats.label <- t.estimator.Rate_estimator.rate /. t.floats.weight;
  t.next_packet_id <- t.next_packet_id + 1;
  let pkt = Net.Packet.alloc t.pool ~id:t.next_packet_id ~flow:t.flow_id ~created:now in
  pkt.Net.Packet.dst <- t.dst_host;
  pkt.Net.Packet.floats.label <- t.floats.label;
  t.sent <- t.sent + 1;
  Net.Link.send t.first_link pkt;
  true

(* The packet's last reader. [create] wraps it in a closure over what
   a delivery updates, the delay statistics and the clock view, and
   nothing else. *)
let[@corelite.hot] release_sink delay clock pkt =
  Sim.Stats.Welford.add delay (clock.Sim.Engine.time -. pkt.Net.Packet.floats.created);
  Net.Packet.release pkt

(* The source is built first and its hooks installed last, once the
   agent around it exists (as Corelite.Edge). *)
let create ~params ~topology ~flow ?(floor = 0.) ?(epoch_offset = 0.) () =
  let source_params = Net.Source.with_floor params.Params.source floor in
  let engine = Net.Topology.engine topology in
  let clock = Sim.Engine.clock engine in
  let delay = Sim.Stats.Welford.create () in
  let flow_id = flow.Net.Flow.id in
  let t =
    {
      clock;
      estimator = Rate_estimator.create ~k:params.Params.k_flow;
      floats = { weight = flow.Net.Flow.weight; label = 0. };
      next_packet_id = 0;
      pool = Net.Topology.pool topology;
      flow_id;
      dst_host = (Net.Flow.egress flow).Net.Node.host;
      sent = 0;
      first_link = Net.Flow.first_link flow topology;
      source = Net.Source.create ~engine ~id:flow_id ~epoch_offset ~params:source_params ();
      trace = Sim.Engine.trace engine;
      topology;
      (* A closure over the two values, not a partial application,
         which builds a larger block. *)
      sink = (fun pkt -> release_sink delay clock pkt);
      delays = Net.Flow.delays flow topology;
      pending_losses = 0;
      losses = 0;
      delay;
    }
  in
  Net.Source.set_hooks t.source ~emit:(fun () -> emit t ()) ~collect:(collect_losses t);
  let m = Sim.Engine.metrics engine in
  (* [Metrics.probe] drops probes while auto-probes are off (the
     default), so build no name or closure for them then. *)
  if Sim.Metrics.auto_probes m then begin
    let pfx = Printf.sprintf "csfq.flow.%d." flow_id in
    Sim.Metrics.probe m (pfx ^ "sent") ~help:"packets injected at the ingress"
      (fun () -> float_of_int t.sent);
    Sim.Metrics.probe m (pfx ^ "delivered") ~help:"packets that reached the sink"
      (fun () -> float_of_int (delivered t));
    Sim.Metrics.probe m (pfx ^ "losses") ~help:"loss signals, the CSFQ feedback"
      (fun () -> float_of_int t.losses);
    Sim.Metrics.probe m (pfx ^ "rate") ~help:"current allowed rate bg, pkt/s"
      (fun () -> rate t)
  end;
  t

let start t =
  Net.Topology.set_flow_sink t.topology ~flow:t.flow_id t.sink;
  t.pending_losses <- 0;
  Net.Source.start t.source

let stop t = Net.Source.stop t.source

let set_backlogged t backlogged = Net.Source.set_active t.source backlogged

let note_loss t =
  if running t then begin
    t.losses <- t.losses + 1;
    t.pending_losses <- t.pending_losses + 1;
    (* b = -1: the congestion signal is a local loss observation, not
       feedback from an identified core link. *)
    if Sim.Trace.want t.trace Sim.Trace.Feedback_recv then
      Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time Sim.Trace.Feedback_recv
        ~a:t.flow_id ~b:(-1) ~x:0. ~y:0.;
    Net.Source.signal_congestion t.source
  end
