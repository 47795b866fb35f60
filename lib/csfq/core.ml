let log = Logs.Src.create "csfq.core" ~doc:"CSFQ core-router logic"

module Log = (val Logs.src_log log : Logs.LOG)

(* The estimator's mutable floats, in an all-float record as
   Rate_estimator keeps its own, [has_alpha] included (0. before the
   first estimate, 1. after): OCaml stores it flat, so every write is
   an unboxed store. As fields of the mixed record below, each write
   would box a float ([tmp_alpha] on every uncongested arrival), and a
   [float option] alpha a [Some] besides, each promoted because the
   core record is old. *)
type floats = {
  mutable alpha : float;  (* meaningful once [has_alpha] *)
  mutable has_alpha : float;
  mutable window_start : float;
  mutable tmp_alpha : float;  (* max label seen while uncongested *)
}

type t = {
  params : Params.t;
  link : Net.Link.t;
  clock : Sim.Engine.clock;
  trace : Sim.Trace.t;
  rng : Sim.Rng.t;
  capacity : float;  (* pkt/s *)
  arrival : Rate_estimator.t;
  accepted : Rate_estimator.t;
  cell : floats;
  mutable congested : bool;
  mutable early_drops : int;
}

let alpha t = if t.cell.has_alpha > 0. then Some t.cell.alpha else None

let congested t = t.congested

let arrival_rate t = Rate_estimator.value t.arrival

let early_drops t = t.early_drops

(* Every revision of the fair-share estimate goes through here so the
   trace sees each [Alpha_update] exactly once. *)
let set_alpha t ~now v =
  t.cell.alpha <- v;
  t.cell.has_alpha <- 1.;
  if Sim.Trace.want t.trace Sim.Trace.Alpha_update then
    Sim.Trace.record t.trace ~time:now Sim.Trace.Alpha_update
      ~a:t.link.Net.Link.id ~b:0 ~x:v ~y:0.

(* Fair-share update, run on every arrival after the rate estimates
   (SIGCOMM '98 estimate_alpha). It reads the time and both estimates
   from flat records, so the arrival path passes it no float. *)
let estimate_alpha t pkt =
  let now = t.clock.Sim.Engine.time in
  let label = pkt.Net.Packet.floats.label in
  let a = t.arrival.Rate_estimator.rate in
  let f = t.accepted.Rate_estimator.rate in
  let c = t.cell in
  if a >= t.capacity then begin
    if not t.congested then begin
      t.congested <- true;
      c.window_start <- now
    end
    else if now > c.window_start +. t.params.Params.k_link then begin
      if c.has_alpha > 0. then begin
        if f > 0. then begin
          let alpha = c.alpha in
          set_alpha t ~now (alpha *. t.capacity /. f);
          Log.debug (fun m ->
              m "t=%.3f link %s alpha %.2f -> %.2f (A=%.1f F=%.1f)" now
                t.link.Net.Link.name alpha
                (alpha *. t.capacity /. f)
                a f)
        end
      end
      else if c.tmp_alpha > 0. then
        (* First congestion before any uncongested window: bootstrap
           from the labels seen so far. *)
        set_alpha t ~now c.tmp_alpha;
      c.window_start <- now
    end
  end
  else begin
    if t.congested then begin
      t.congested <- false;
      c.window_start <- now;
      c.tmp_alpha <- 0.
    end
    else begin
      c.tmp_alpha <- Float.max c.tmp_alpha label;
      if now > c.window_start +. t.params.Params.k_link then begin
        set_alpha t ~now c.tmp_alpha;
        c.window_start <- now;
        c.tmp_alpha <- 0.
      end
    end
  end

(* [estimate_alpha] takes the packet, not its label: the label sits
   unboxed in the packet's float block, and passing it as a float
   argument would box it on every arrival. So the relabelling waits
   until [estimate_alpha] has read the arrival label, and applies the
   fair share that was in force before it ran. The time comes from the
   clock view, not a boxed [Engine.now]. *)
let[@corelite.hot] on_arrival t pkt =
  let now = t.clock.Sim.Engine.time in
  let label = pkt.Net.Packet.floats.label in
  Rate_estimator.update t.arrival ~now ~amount:1.;
  let had_alpha = t.cell.has_alpha > 0. in
  let alpha_before = t.cell.alpha in
  (* [Float.max 0.] spelled out, NaN included: the call would box. *)
  let drop_probability =
    if had_alpha && label > 0. then begin
      let p = 1. -. (alpha_before /. label) in
      if p > 0. || Float.is_nan p then p else 0.
    end
    else 0.
  in
  let verdict =
    if Sim.Rng.bernoulli t.rng drop_probability then begin
      t.early_drops <- t.early_drops + 1;
      Net.Link.Drop
    end
    else begin
      Rate_estimator.update t.accepted ~now ~amount:1.;
      Net.Link.Pass
    end
  in
  estimate_alpha t pkt;
  (match verdict with
  | Net.Link.Pass when had_alpha && label > alpha_before ->
    pkt.Net.Packet.floats.label <- alpha_before
  | Net.Link.Pass | Net.Link.Drop -> ());
  verdict

let note_overflow t =
  if t.cell.has_alpha > 0. then
    set_alpha t ~now:t.clock.Sim.Engine.time
      (t.cell.alpha *. t.params.Params.overflow_penalty)

let attach ~params ~rng link =
  if Net.Link.has_hook link then
    invalid_arg ("Csfq.Core.attach: link " ^ link.Net.Link.name ^ " already has hooks");
  let t =
    {
      params;
      link;
      clock = Sim.Engine.clock link.Net.Link.engine;
      trace = Sim.Engine.trace link.Net.Link.engine;
      rng;
      capacity = Net.Link.capacity_pps link;
      arrival = Rate_estimator.create ~k:params.Params.k_link;
      accepted = Rate_estimator.create ~k:params.Params.k_link;
      cell =
        {
          alpha = 0.;
          has_alpha = 0.;
          window_start = Sim.Engine.now link.Net.Link.engine;
          tmp_alpha = 0.;
        };
      congested = false;
      early_drops = 0;
    }
  in
  link.Net.Link.on_arrival <- on_arrival t;
  let m = Sim.Engine.metrics link.Net.Link.engine in
  (* [Metrics.probe] drops probes while auto-probes are off, so build
     no name or closure for them then. *)
  if Sim.Metrics.auto_probes m then begin
    let pfx = "csfq.core." ^ link.Net.Link.name ^ "." in
    Sim.Metrics.probe m (pfx ^ "early_drops")
      ~help:"probabilistic drops against the fair share"
      (fun () -> float_of_int t.early_drops);
    Sim.Metrics.probe m (pfx ^ "alpha")
      ~help:"fair-share estimate, pkt/s; -1 before the first estimate"
      (fun () -> if t.cell.has_alpha > 0. then t.cell.alpha else -1.)
  end;
  t

let detach t = t.link.Net.Link.on_arrival <- Net.Link.admit_all
