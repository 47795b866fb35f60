let log = Logs.Src.create "corelite.core" ~doc:"Corelite core-router logic"

module Log = (val Logs.src_log log : Logs.LOG)

type selector_state =
  | Cache of Cache_selector.t
  | Stateless of Stateless_selector.t

(* The last epoch's readings, in an all-float record: OCaml stores it
   flat, so the per-epoch writes are unboxed stores. As mutable float
   fields of the mixed record below, each write would box a float, and
   the box would be promoted because the core record is old. *)
type last = { mutable qavg : float; mutable fn : float }

(* The queue average itself lives on the link ([Net.Link.queue_average]),
   which integrates it at every queue change. The fields a marked
   arrival reads come first. *)
type t = {
  mutable markers_seen : int;
  trace : Sim.Trace.t;
  check : bool;
  mutable feedback_sent : int;
  send_feedback : Net.Packet.marker -> unit;
  link : Net.Link.t;
  selector : selector_state;
  params : Params.t;
  estimator : Congestion.t;
  mutable timer : Sim.Engine.handle option;
  last : last;
  mutable congested_epochs : int;
}

let link t = t.link

let last_qavg t = t.last.qavg

let last_fn t = t.last.fn

let feedback_sent t = t.feedback_sent

let congested_epochs t = t.congested_epochs

let markers_seen t = t.markers_seen

let[@corelite.hot] emit t marker =
  t.feedback_sent <- t.feedback_sent + 1;
  if Sim.Trace.want t.trace Sim.Trace.Feedback_emit then
    Sim.Trace.record t.trace ~time:t.link.Net.Link.clock.Sim.Engine.time
      Sim.Trace.Feedback_emit ~a:t.link.Net.Link.id
      ~b:marker.Net.Packet.flow_id ~x:marker.Net.Packet.normalized_rate ~y:0.;
  t.send_feedback marker

let[@corelite.hot] note_marker t pkt =
  t.markers_seen <- t.markers_seen + 1;
  if Sim.Trace.want t.trace Sim.Trace.Marker_seen then
    Sim.Trace.record t.trace ~time:t.link.Net.Link.clock.Sim.Engine.time
      Sim.Trace.Marker_seen ~a:t.link.Net.Link.id
      ~b:pkt.Net.Packet.marker_flow ~x:pkt.Net.Packet.floats.rate ~y:0.

(* The selectors read the marker straight from the packet; a marker
   record is built only for feedback, which outlives the packet. *)
let[@corelite.hot] on_cache_marker t cache pkt =
  note_marker t pkt;
  Cache_selector.observe cache pkt

let[@corelite.hot] on_stateless_marker t sel pkt =
  note_marker t pkt;
  let copies = Stateless_selector.observe sel pkt in
  if t.check then
    (* Per-marker feedback budget: at most ceil(pw) copies, whether
       they come from this marker's own draw or the swap deficit. *)
    Sim.Invariant.requiref
      ~what:(fun () -> (* lint: alloc-ok -- diagnostic closure, gated by t.check *)
        Printf.sprintf
          "Core %s: stateless selector returned %d copies for one marker \
           (pw=%.3f allows at most %d)"
          t.link.Net.Link.name copies
          (Stateless_selector.pw sel)
          (int_of_float (Stateless_selector.pw sel) + 1))
      (* lint: alloc-ok -- the audit's bound, read only with the auditor on *)
      (copies >= 0 && copies <= int_of_float (Stateless_selector.pw sel) + 1);
  if copies > 0 then
    match Net.Packet.marker pkt with
    | Some marker ->
      for _ = 1 to copies do
        emit t marker
      done
    | None -> ()

let on_epoch t engine () =
  let now = Sim.Engine.now engine in
  let qavg = Net.Link.queue_average t.link in
  Net.Link.reset_queue_average t.link;
  let mu = Net.Link.capacity_pps t.link *. t.params.Params.core_epoch in
  let fn = Congestion.budget t.estimator ~mu ~qavg ~qthresh:t.params.Params.qthresh in
  if t.check then begin
    Sim.Invariant.require
      ~what:("Core " ^ t.link.Net.Link.name ^ ": negative average queue length")
      (qavg >= 0.);
    Sim.Invariant.require
      ~what:("Core " ^ t.link.Net.Link.name ^ ": negative feedback budget Fn")
      (fn >= 0.)
  end;
  t.last.qavg <- qavg;
  t.last.fn <- fn;
  (* Exactly one budget computation per core epoch per link — recorded
     before the selector acts, so the oracle can check both the 100 ms
     cadence and that every feedback burst follows a positive budget. *)
  if Sim.Trace.want t.trace Sim.Trace.Epoch then
    Sim.Trace.record t.trace ~time:now Sim.Trace.Epoch ~a:t.link.Net.Link.id
      ~b:0 ~x:qavg ~y:fn;
  if fn > 0. then begin
    t.congested_epochs <- t.congested_epochs + 1;
    Log.debug (fun m ->
        m "t=%.3f link %s congested: qavg=%.2f fn=%.2f" now t.link.Net.Link.name qavg
          fn)
  end;
  (match t.selector with
  | Cache cache ->
    if fn > 0. then begin
      let count = Cache_selector.select_iter cache ~fn (emit t) in
      if t.check then
        (* Epoch feedback budget: the cache returns at most ceil(Fn)
           markers for the epoch. *)
        Sim.Invariant.requiref
          ~what:(fun () ->
            Printf.sprintf
              "Core %s: cache selector returned %d markers for budget Fn=%.3f \
               (at most %d allowed)"
              t.link.Net.Link.name count fn
              (int_of_float fn + 1))
          (count <= int_of_float fn + 1)
    end
  | Stateless sel -> Stateless_selector.on_epoch sel ~fn);
  if Sim.Trace.want t.trace Sim.Trace.Selector then
    match t.selector with
    | Cache cache ->
      Sim.Trace.record t.trace ~time:now Sim.Trace.Selector
        ~a:t.link.Net.Link.id ~b:1
        ~x:(float_of_int (Cache_selector.occupancy cache))
        ~y:0.
    | Stateless sel ->
      Sim.Trace.record t.trace ~time:now Sim.Trace.Selector
        ~a:t.link.Net.Link.id ~b:0 ~x:(Stateless_selector.pw sel)
        ~y:(Stateless_selector.rav sel)

(* Router reset: wipe every piece of soft state the core logic keeps —
   the marker cache (or stateless running averages and selection
   probability), the estimator's smoothed history, and the queue
   average accumulating for the current epoch. The epoch timer keeps
   ticking (it models the router's clock, not its RAM); with the
   selector emptied the next epochs rebuild qavg and the budget from
   zero without emitting a feedback burst. The caller resets the
   underlying link's buffers separately ({!Net.Link.reset}) if the
   reset is meant to lose queued packets too. *)
let reset t =
  (match t.selector with
  | Cache cache -> Cache_selector.clear cache
  | Stateless sel -> Stateless_selector.reset sel);
  Congestion.reset t.estimator;
  Net.Link.reset_queue_average t.link;
  t.last.qavg <- 0.;
  t.last.fn <- 0.

let attach ~params ~rng ~send_feedback link =
  if Net.Link.has_hook link then
    invalid_arg ("Core.attach: link " ^ link.Net.Link.name ^ " already has hooks");
  let engine = link.Net.Link.engine in
  let selector =
    match params.Params.selector with
    | Params.Cache ->
      Cache (Cache_selector.create ~capacity:params.Params.cache_size ~rng)
    | Params.Stateless ->
      Stateless
        (Stateless_selector.create ~rav_gain:params.Params.rav_gain
           ~wav_gain:params.Params.wav_gain ~pw_cap:params.Params.pw_cap ~rng)
  in
  let t =
    {
      params;
      estimator = Congestion.make params.Params.estimator;
      link;
      trace = Sim.Engine.trace engine;
      send_feedback;
      selector;
      timer = None;
      last = { qavg = 0.; fn = 0. };
      feedback_sent = 0;
      congested_epochs = 0;
      markers_seen = 0;
      check = Sim.Invariant.default ();
    }
  in
  (* The first epoch averages the queue from now. *)
  Net.Link.reset_queue_average link;
  t.timer <-
    Some (Sim.Engine.every engine ~period:params.Params.core_epoch (on_epoch t engine));
  (* One arrival closure per selector kind, holding the selector
     itself: a marked arrival never matches on [selector_state]. *)
  link.Net.Link.on_arrival <-
    (match selector with
    | Cache cache ->
      fun pkt ->
        if Net.Packet.has_marker pkt then on_cache_marker t cache pkt;
        Net.Link.Pass
    | Stateless sel ->
      fun pkt ->
        if Net.Packet.has_marker pkt then on_stateless_marker t sel pkt;
        Net.Link.Pass);
  let m = Sim.Engine.metrics engine in
  (* [Metrics.probe] drops probes while auto-probes are off, so build
     no name or closure for them then. *)
  if Sim.Metrics.auto_probes m then begin
    let pfx = "corelite.core." ^ link.Net.Link.name ^ "." in
    Sim.Metrics.probe m (pfx ^ "feedback_sent")
      ~help:"feedback markers returned upstream"
      (fun () -> float_of_int t.feedback_sent);
    Sim.Metrics.probe m (pfx ^ "markers_seen")
      ~help:"markers observed on arriving packets"
      (fun () -> float_of_int t.markers_seen);
    Sim.Metrics.probe m (pfx ^ "congested_epochs")
      ~help:"epochs with a positive budget, i.e. qavg above qthresh"
      (fun () -> float_of_int t.congested_epochs);
    Sim.Metrics.probe m (pfx ^ "qavg") ~help:"last epoch's average queue"
      (fun () -> t.last.qavg);
    Sim.Metrics.probe m (pfx ^ "fn") ~help:"last epoch's marker budget Fn"
      (fun () -> t.last.fn)
  end;
  t

let detach t =
  (match t.timer with Some h -> Sim.Engine.cancel h | None -> ());
  t.timer <- None;
  t.link.Net.Link.on_arrival <- Net.Link.admit_all
