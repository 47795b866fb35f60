let log = Logs.Src.create "corelite.edge" ~doc:"Corelite edge agents"

module Log = (val Logs.src_log log : Logs.LOG)

(* Flat all-float record: the timestamp store in [emit] is an unboxed
   in-place write, keeping activity stamping off the hot path's
   allocation budget (a mutable float field of the mixed record [t]
   would box on every assignment). *)
type clock = { mutable at : float }

type t = {
  params : Params.t;
  topology : Net.Topology.t;
  flow : Net.Flow.t;
  trace : Sim.Trace.t;
  floor : float;
  supply : (unit -> Net.Packet.t option) option;
  deliver : (Net.Packet.t -> unit) option;
  pool : Net.Packet.pool;  (* the topology's; [emit] allocates from it *)
  mutable source : Net.Source.t option;  (* set once in [create] *)
  (* [emit] stamps the egress's host index into every packet, the
     supplied ones included, and hands it to the path's first link. *)
  dst_host : int;
  first_link : Net.Link.t;
  delays : Net.Flow.delays;  (* feedback latency from each path link *)
  marker_spacing : int;
  (* Feedback markers this epoch, by path position of the core link
     ([Net.Flow.position]); the last slot counts the hand-off link. *)
  feedback : int array;
  mutable data_since_marker : int;
  mutable next_packet_id : int;
  mutable sent : int;
  mutable markers_attached : int;
  mutable feedback_received : int;
  mutable delivered : int;
  activity : clock;  (* time of the last packet this agent emitted *)
  delay : Sim.Stats.Welford.t;  (* end-to-end delay of delivered packets *)
}

let source t = match t.source with Some s -> s | None -> assert false

let flow t = t.flow

let params t = t.params

let rate t = Net.Source.rate (source t)

let running t = Net.Source.running (source t)

let delivered t = t.delivered

let mean_delay t = Sim.Stats.Welford.mean t.delay

let sent t = t.sent

let last_activity t = t.activity.at

let markers_attached t = t.markers_attached

let feedback_received t = t.feedback_received

let feedback_delay t ~link_id = Net.Flow.delay_to t.delays ~link_id

let handoff_link t = -t.flow.Net.Flow.id

let clear_feedback t = Array.fill t.feedback 0 (Array.length t.feedback) 0

(* The bottleneck link dominates: react to the max feedback count from
   any single core link, then clear the epoch's counters. *)
let collect_max t () =
  let m = Array.fold_left Stdlib.max 0 t.feedback in
  clear_feedback t;
  m

(* Stamp, mark and send one packet, pooled or supplied. The normalized
   rate is read from the source only for a marked packet, into the
   packet's float block: a marker costs no record. *)
let[@corelite.hot] send t ~now pkt =
  pkt.Net.Packet.dst <- t.dst_host;
  t.data_since_marker <- t.data_since_marker + 1;
  if t.data_since_marker >= t.marker_spacing then begin
    t.data_since_marker <- 0;
    t.markers_attached <- t.markers_attached + 1;
    (* The advertised normalized rate covers only the contended part
       of the flow's rate: traffic under a contracted floor is
       reserved capacity and must not attract selective feedback. *)
    let edge_id = (Net.Flow.ingress t.flow).Net.Node.id in
    let rate = Net.Source.rate (source t) in
    let normalized_rate = Float.max 0. (rate -. t.floor) /. t.flow.Net.Flow.weight in
    pkt.Net.Packet.marker_edge <- edge_id;
    pkt.Net.Packet.marker_flow <- t.flow.Net.Flow.id;
    pkt.Net.Packet.floats.rate <- normalized_rate;
    if Sim.Trace.want t.trace Sim.Trace.Marker_attach then
      Sim.Trace.record t.trace ~time:now Sim.Trace.Marker_attach
        ~a:t.flow.Net.Flow.id ~b:edge_id ~x:normalized_rate ~y:0.
  end;
  t.sent <- t.sent + 1;
  t.activity.at <- now;
  Net.Link.send t.first_link pkt

let[@corelite.hot] emit t ~now =
  match t.supply with
  | None ->
    t.next_packet_id <- t.next_packet_id + 1;
    send t ~now
      (Net.Packet.alloc t.pool ~id:t.next_packet_id ~flow:t.flow.Net.Flow.id
         ~created:now)
  | Some take -> (
    match take () with
    | None -> () (* application-limited aggregate: nothing to shape *)
    | Some pkt -> send t ~now pkt)

let create ~params ~topology ~flow ?(floor = 0.) ?(epoch_offset = 0.) ?supply
    ?deliver () =
  let source_params = Net.Source.with_floor params.Params.source floor in
  let engine = Net.Topology.engine topology in
  let t =
    {
      params;
      topology;
      flow;
      trace = Sim.Engine.trace engine;
      floor;
      supply;
      deliver;
      pool = Net.Topology.pool topology;
      source = None;
      dst_host = (Net.Flow.egress flow).Net.Node.host;
      first_link = Net.Flow.first_link flow topology;
      delays = Net.Flow.delays flow topology;
      marker_spacing = Params.marker_spacing params ~weight:flow.Net.Flow.weight;
      feedback = Array.make (List.length flow.Net.Flow.path) 0;
      data_since_marker = 0;
      next_packet_id = 0;
      sent = 0;
      markers_attached = 0;
      feedback_received = 0;
      delivered = 0;
      activity = { at = Sim.Engine.now engine };
      delay = Sim.Stats.Welford.create ();
    }
  in
  t.source <-
    Some
      (Net.Source.create ~engine ~id:flow.Net.Flow.id ~epoch_offset
         ~params:source_params
         ~emit:(fun ~now -> emit t ~now)
         ~collect:(collect_max t) ());
  let m = Sim.Engine.metrics engine in
  (* [Metrics.probe] drops probes while auto-probes are off (large
     generated topologies turn them off), so build no name or closure
     for them then. *)
  if Sim.Metrics.auto_probes m then begin
    let pfx = Printf.sprintf "corelite.flow.%d." flow.Net.Flow.id in
    Sim.Metrics.probe m (pfx ^ "sent") ~help:"packets injected at the ingress"
      (fun () -> float_of_int t.sent);
    Sim.Metrics.probe m (pfx ^ "delivered") ~help:"packets that reached the sink"
      (fun () -> float_of_int t.delivered);
    Sim.Metrics.probe m (pfx ^ "markers_attached")
      ~help:"packets carrying a marker, one per marker_spacing"
      (fun () -> float_of_int t.markers_attached);
    Sim.Metrics.probe m (pfx ^ "feedback_received")
      ~help:"feedback markers returned to this edge"
      (fun () -> float_of_int t.feedback_received);
    Sim.Metrics.probe m (pfx ^ "rate") ~help:"current allowed rate bg, pkt/s"
      (fun () -> rate t)
  end;
  t

let start t =
  let engine = Net.Topology.engine t.topology in
  (* The packet's last reader unless a consumer takes it over. *)
  let sink pkt =
    t.delivered <- t.delivered + 1;
    Sim.Stats.Welford.add t.delay
      (Sim.Engine.now engine -. pkt.Net.Packet.floats.created);
    match t.deliver with
    | Some consume -> consume pkt
    | None -> Net.Packet.release pkt
  in
  Net.Topology.set_flow_sink t.topology ~flow:t.flow.Net.Flow.id sink;
  t.data_since_marker <- 0;
  clear_feedback t;
  Net.Source.start (source t)

(* The sink stays installed so that in-flight packets (and restarts)
   keep working; only the source stops. *)
let stop t = Net.Source.stop (source t)

(* Edge-router reset: the bg(f) table, the per-link feedback counters
   and the marker spacing phase live in edge RAM and are lost. A
   running agent restarts its source, which begins a fresh adaptation
   lifetime (slow-start from the initial rate) — the paper's soft-state
   property: nothing needs to be resynchronized, the control loop
   simply relearns the rate. A stopped agent just loses the counters. *)
let reset t =
  clear_feedback t;
  t.data_since_marker <- 0;
  if running t then Net.Source.start (source t)

let set_backlogged t backlogged = Net.Source.set_active (source t) backlogged

(* The counter slot of core link [link_id]: its path position, or the
   last slot for the hand-off link. *)
let slot t ~link_id =
  let i = Net.Flow.position t.delays ~link_id in
  if i >= 0 then i
  else if link_id = handoff_link t then Array.length t.feedback - 1
  else
    invalid_arg
      (Printf.sprintf
         "Corelite.Edge.receive_feedback: link %d is not on flow %d's path" link_id
         t.flow.Net.Flow.id)

let receive_feedback t ~link_id _marker =
  let i = slot t ~link_id in
  if running t then begin
    t.feedback_received <- t.feedback_received + 1;
    if Sim.Trace.want t.trace Sim.Trace.Feedback_recv then
      Sim.Trace.record t.trace
        ~time:(Sim.Engine.now (Net.Topology.engine t.topology))
        Sim.Trace.Feedback_recv ~a:t.flow.Net.Flow.id ~b:link_id ~x:0. ~y:0.;
    Log.debug (fun m ->
        m "flow %d: feedback from link %d (bg=%.1f)" t.flow.Net.Flow.id link_id
          (rate t));
    t.feedback.(i) <- t.feedback.(i) + 1;
    Net.Source.signal_congestion (source t)
  end
