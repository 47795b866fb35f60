(* CLEF-style adversarial heavy hitter (see PAPERS.md): an unresponsive
   sender that bursts at a high peak rate for a [duty] fraction of each
   [period], sized so its *average* rate sits just below a detection
   threshold; at duty 1 it is a constant-rate blaster. The labels it advertises are honest but smoothed — a
   CSFQ-style exponential rate estimate lags far below the peak during
   a burst, and the Corelite marker advertises the long-run average —
   which is precisely the blind spot of estimation-based policing that
   windowed (multi-timescale) fairness metrics are meant to expose. *)

type t = {
  timer : Sim.Engine.handle;
  peak : float;
  duty : float;
  sent : int ref;
  delivered : int ref;
}

let attach ~network ~flow ~peak ~duty ~period ?(corelite_markers = false) () =
  if not (Float.is_finite peak && peak > 0.) then
    invalid_arg "Adversary.attach: peak must be positive";
  if not (duty > 0. && duty <= 1.) then
    invalid_arg "Adversary.attach: duty must lie in (0, 1]";
  if not (Float.is_finite period && period > 0.) then
    invalid_arg "Adversary.attach: period must be positive";
  let engine = network.Network.engine in
  let flow_record = Network.flow network flow in
  let delivered = ref 0 in
  Net.Topology.set_flow_sink network.Network.topology ~flow (fun _ -> incr delivered);
  let dst = (Net.Flow.egress flow_record).Net.Node.host in
  let first_link = Net.Flow.first_link flow_record network.Network.topology in
  let estimator = Csfq.Rate_estimator.create ~k:0.1 in
  let weight = flow_record.Net.Flow.weight in
  (* The marker advertises the long-run average — under the threshold —
     never the burst peak. *)
  let advertised = peak *. duty /. weight in
  let seq = ref 0 in
  let sent = ref 0 in
  let start_time = Sim.Engine.now engine in
  let emit () =
    let now = Sim.Engine.now engine in
    (* Burst gate: send only during the leading [duty] fraction of the
       current cycle; the pacing timer keeps ticking at the peak rate
       and the off-phase ticks fall through. *)
    let phase = Float.rem (now -. start_time) period in
    if phase < duty *. period then begin
      incr seq;
      Csfq.Rate_estimator.update estimator ~now ~amount:1.;
      let estimate = Csfq.Rate_estimator.value estimator in
      let marker =
        if corelite_markers then
          Some
            {
              Net.Packet.edge_id = (Net.Flow.ingress flow_record).Net.Node.id;
              flow_id = flow;
              normalized_rate = advertised;
            }
        else None
      in
      let pkt = Net.Packet.make ~id:!seq ~flow ?marker ~created:now () in
      pkt.Net.Packet.dst <- dst;
      pkt.Net.Packet.floats.label <- estimate /. weight;
      incr sent;
      Net.Link.send first_link pkt
    end
  in
  let timer = Sim.Engine.every engine ~period:(1. /. peak) emit in
  { timer; peak; duty; sent; delivered }

let stop t = Sim.Engine.cancel t.timer

let sent t = !(t.sent)

let delivered t = !(t.delivered)

let survival t =
  if !(t.sent) = 0 then 1. else float_of_int !(t.delivered) /. float_of_int !(t.sent)

let average_rate t = t.peak *. t.duty

let peak_rate t = t.peak
