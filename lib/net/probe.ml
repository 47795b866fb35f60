type t = {
  link : Link.t;
  period : float;
  queue : Sim.Timeseries.t;
  throughput : Sim.Timeseries.t;
  drops : Sim.Timeseries.t;
  mutable last_departures : int;
  mutable last_drops : int;
  mutable total_departures : int;
  mutable samples : int;
  mutable peak_queue : int;
  mutable timer : Sim.Engine.handle option;
}

let sample t engine () =
  let now = Sim.Engine.now engine in
  let qlen = Link.queue_length t.link in
  Sim.Timeseries.add t.queue now (float_of_int qlen);
  if qlen > t.peak_queue then t.peak_queue <- qlen;
  let departures = t.link.Link.departures in
  Sim.Timeseries.add t.throughput now
    (float_of_int (departures - t.last_departures) /. t.period);
  t.total_departures <- departures;
  t.last_departures <- departures;
  let dropped = t.link.Link.drops in
  Sim.Timeseries.add t.drops now (float_of_int (dropped - t.last_drops) /. t.period);
  t.last_drops <- dropped;
  t.samples <- t.samples + 1

let attach ~engine ~period link =
  if period <= 0. then invalid_arg "Probe.attach: period must be positive";
  let t =
    {
      link;
      period;
      queue = Sim.Timeseries.create ();
      throughput = Sim.Timeseries.create ();
      drops = Sim.Timeseries.create ();
      last_departures = link.Link.departures;
      last_drops = link.Link.drops;
      total_departures = link.Link.departures;
      samples = 0;
      peak_queue = 0;
      timer = None;
    }
  in
  t.timer <- Some (Sim.Engine.every engine ~period (sample t engine));
  t

let queue_series t = t.queue

let throughput_series t = t.throughput

let drop_series t = t.drops

let mean_utilization t =
  if t.samples = 0 then 0.
  else begin
    let elapsed = float_of_int t.samples *. t.period in
    float_of_int t.total_departures /. elapsed /. Link.capacity_pps t.link
  end

let peak_queue t = t.peak_queue

let detach t =
  match t.timer with
  | Some handle ->
    Sim.Engine.cancel handle;
    t.timer <- None
  | None -> ()
