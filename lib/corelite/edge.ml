let log = Logs.Src.create "corelite.edge" ~doc:"Corelite edge agents"

module Log = (val Logs.src_log log : Logs.LOG)

(* The floats a marked packet reads, in one all-float block: a float
   field of the mixed record [t] (or [Net.Flow.t]'s weight) is a
   separate box to load. *)
type floats = { weight : float; floor : float }

(* The fields a pacing slot reads come first, in [emit]/[send] order,
   then those of a marked packet; a packet reads neither [Net.Flow.t]
   nor a boxed float. *)
type t = {
  supply : (unit -> Net.Packet.t option) option;
  pool : Net.Packet.pool;  (* the topology's; [emit] allocates from it *)
  flow_id : int;
  mutable next_packet_id : int;
  clock : Sim.Engine.clock;
  (* [send] stamps the egress's host index into every packet, the
     supplied ones included, and hands it to the path's first link. *)
  dst_host : int;
  mutable data_since_marker : int;
  marker_spacing : int;
  mutable sent : int;
  first_link : Net.Link.t;
  mutable markers_attached : int;
  ingress_id : int;  (* the marker's edge id *)
  source : Net.Source.t;
  floats : floats;
  trace : Sim.Trace.t;
  params : Params.t;
  topology : Net.Topology.t;
  (* Built by [create], installed by [start]; it closes over only
     what a delivery updates: [delay] and the clock view. *)
  sink : Net.Packet.t -> unit;
  delays : Net.Flow.delays;  (* feedback latency from each path link *)
  (* Feedback markers this epoch, by path position of the core link
     ([Net.Flow.position]); the last slot counts the hand-off link. *)
  feedback : int array;
  mutable feedback_received : int;
  delay : Sim.Stats.Welford.t;  (* end-to-end delay of delivered packets *)
}

let params t = t.params

let rate t = Net.Source.rate t.source

let running t = Net.Source.running t.source

let delivered t = Sim.Stats.Welford.count t.delay

let mean_delay t = Sim.Stats.Welford.mean t.delay

let sent t = t.sent

let last_activity t = Net.Source.last_sent t.source

let markers_attached t = t.markers_attached

let feedback_received t = t.feedback_received

let feedback_delay t ~link_id = Net.Flow.delay_to t.delays ~link_id

let handoff_link t = -t.flow_id

let clear_feedback t = Array.fill t.feedback 0 (Array.length t.feedback) 0

(* The bottleneck link dominates: react to the max feedback count from
   any single core link, then clear the epoch's counters. *)
let collect_max t () =
  let feedback = t.feedback in
  let m = ref 0 in
  for i = 0 to Array.length feedback - 1 do
    if feedback.(i) > !m then m := feedback.(i)
  done;
  clear_feedback t;
  !m

(* Stamp, mark and send one packet, pooled or supplied. The normalized
   rate is read from the source's float block only for a marked packet,
   into the packet's float block: a marker costs no record. *)
let[@corelite.hot] send t pkt =
  pkt.Net.Packet.dst <- t.dst_host;
  t.data_since_marker <- t.data_since_marker + 1;
  if t.data_since_marker >= t.marker_spacing then begin
    t.data_since_marker <- 0;
    t.markers_attached <- t.markers_attached + 1;
    (* The advertised normalized rate covers only the contended part
       of the flow's rate: traffic under a contracted floor is
       reserved capacity and must not attract selective feedback.
       [Float.max 0.] spelled out, NaN included: the call would box. *)
    let excess = (Net.Source.floats t.source).Net.Source.rate -. t.floats.floor in
    let normalized_rate =
      (if excess > 0. || Float.is_nan excess then excess else 0.) /. t.floats.weight
    in
    pkt.Net.Packet.marker_edge <- t.ingress_id;
    pkt.Net.Packet.marker_flow <- t.flow_id;
    pkt.Net.Packet.floats.rate <- normalized_rate;
    if Sim.Trace.want t.trace Sim.Trace.Marker_attach then
      Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time Sim.Trace.Marker_attach
        ~a:t.flow_id ~b:t.ingress_id ~x:normalized_rate ~y:0.
  end;
  t.sent <- t.sent + 1;
  Net.Link.send t.first_link pkt

(* Whether a packet left: an empty supply leaves the slot unused. *)
let[@corelite.hot] emit t () =
  match t.supply with
  | None ->
    t.next_packet_id <- t.next_packet_id + 1;
    send t
      (Net.Packet.alloc t.pool ~id:t.next_packet_id ~flow:t.flow_id
         ~created:t.clock.Sim.Engine.time);
    true
  | Some take -> (
    match take () with
    | None -> false (* application-limited aggregate: nothing to shape *)
    | Some pkt ->
      send t pkt;
      true)

(* The sinks: the packet's last reader, or its consumer's. [create]
   wraps one in a closure over what a delivery updates, the delay
   statistics and the clock view, and nothing else. *)
let[@corelite.hot] release_sink delay clock pkt =
  Sim.Stats.Welford.add delay (clock.Sim.Engine.time -. pkt.Net.Packet.floats.created);
  Net.Packet.release pkt

let[@corelite.hot] consume_sink delay clock consume pkt =
  Sim.Stats.Welford.add delay (clock.Sim.Engine.time -. pkt.Net.Packet.floats.created);
  consume pkt

(* The source is built first and its hooks installed last, once the
   agent around it exists: the agent holds its source directly. *)
let create ~params ~topology ~flow ?(floor = 0.) ?(epoch_offset = 0.) ?supply
    ?deliver () =
  let source_params = Net.Source.with_floor params.Params.source floor in
  let engine = Net.Topology.engine topology in
  let clock = Sim.Engine.clock engine in
  let delay = Sim.Stats.Welford.create () in
  let flow_id = flow.Net.Flow.id in
  let t =
    {
      supply;
      pool = Net.Topology.pool topology;
      flow_id;
      next_packet_id = 0;
      clock;
      dst_host = (Net.Flow.egress flow).Net.Node.host;
      data_since_marker = 0;
      marker_spacing = Params.marker_spacing params ~weight:flow.Net.Flow.weight;
      sent = 0;
      first_link = Net.Flow.first_link flow topology;
      markers_attached = 0;
      ingress_id = (Net.Flow.ingress flow).Net.Node.id;
      source = Net.Source.create ~engine ~id:flow_id ~epoch_offset ~params:source_params ();
      floats = { weight = flow.Net.Flow.weight; floor };
      trace = Sim.Engine.trace engine;
      params;
      topology;
      (* Closures over their two or three values, not partial
         applications, which build a larger block. *)
      sink =
        (match deliver with
        | None -> fun pkt -> release_sink delay clock pkt
        | Some consume -> fun pkt -> consume_sink delay clock consume pkt);
      delays = Net.Flow.delays flow topology;
      feedback = Array.make (List.length flow.Net.Flow.path) 0;
      feedback_received = 0;
      delay;
    }
  in
  Net.Source.set_hooks t.source ~emit:(fun () -> emit t ()) ~collect:(collect_max t);
  let m = Sim.Engine.metrics engine in
  (* [Metrics.probe] drops probes while auto-probes are off (the
     default), so build no name or closure for them then. *)
  if Sim.Metrics.auto_probes m then begin
    let pfx = Printf.sprintf "corelite.flow.%d." flow_id in
    Sim.Metrics.probe m (pfx ^ "sent") ~help:"packets injected at the ingress"
      (fun () -> float_of_int t.sent);
    Sim.Metrics.probe m (pfx ^ "delivered") ~help:"packets that reached the sink"
      (fun () -> float_of_int (delivered t));
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
  Net.Topology.set_flow_sink t.topology ~flow:t.flow_id t.sink;
  t.data_since_marker <- 0;
  clear_feedback t;
  Net.Source.start t.source

(* The sink stays installed so that in-flight packets (and restarts)
   keep working; only the source stops. *)
let stop t = Net.Source.stop t.source

(* Edge-router reset: the bg(f) table, the per-link feedback counters
   and the marker spacing phase live in edge RAM and are lost. A
   running agent restarts its source, which begins a fresh adaptation
   lifetime (slow-start from the initial rate) — the paper's soft-state
   property: nothing needs to be resynchronized, the control loop
   simply relearns the rate. A stopped agent just loses the counters. *)
let reset t =
  clear_feedback t;
  t.data_since_marker <- 0;
  if running t then Net.Source.start t.source

let set_backlogged t backlogged = Net.Source.set_active t.source backlogged

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
         t.flow_id)

let receive_feedback t ~link_id _marker =
  let i = slot t ~link_id in
  if running t then begin
    t.feedback_received <- t.feedback_received + 1;
    if Sim.Trace.want t.trace Sim.Trace.Feedback_recv then
      Sim.Trace.record t.trace ~time:t.clock.Sim.Engine.time Sim.Trace.Feedback_recv
        ~a:t.flow_id ~b:link_id ~x:0. ~y:0.;
    Log.debug (fun m ->
        m "flow %d: feedback from link %d (bg=%.1f)" t.flow_id link_id (rate t));
    t.feedback.(i) <- t.feedback.(i) + 1;
    Net.Source.signal_congestion t.source
  end
