type params = {
  initial_rate : float;
  min_rate : float;
  alpha : float;
  beta : float;
  epoch : float;
  ss_thresh : float;
  ss_period : float;
  floor : float;
  silence_epochs : int;
  restore : float;
}

let default_params =
  {
    initial_rate = 1.;
    min_rate = 0.5;
    alpha = 1.;
    beta = 1.;
    epoch = 0.5;
    ss_thresh = 32.;
    ss_period = 1.;
    floor = 0.;
    silence_epochs = 0;
    restore = 2.;
  }

let with_floor params floor =
  if Float.equal floor params.floor then params else { params with floor }

type phase = Slow_start | Linear

(* All-float cell for the allowed rate (as Engine's clock): a
   [mutable rate : float] field of the mixed record [t] would box a
   fresh float at every rate change, and each box would be promoted
   because the old record [t] points at it. *)
type rate_cell = { mutable v : float }

type t = {
  engine : Sim.Engine.t;
  id : int;
  trace : Sim.Trace.t;
  params : params;
  epoch_offset : float;
  emit : now:float -> unit;
  collect : unit -> int;
  rate : rate_cell;
  mutable phase : phase;
  mutable silent : int;  (* consecutive feedback-free epochs (Linear) *)
  mutable running : bool;
  mutable active : bool;  (* application has data to send *)
  mutable emitted : int;
  (* Pacing events are scheduled with [Engine.schedule_unit] through
     one persistent closure ([pace_ev]) instead of a fresh closure and
     cancellation handle per packet. [pacing_pending] counts pacing
     events in flight; only the most recently scheduled one continues
     the chain, so events left over from a stop/start cycle drain as
     no-ops exactly like the cancelled handles they replace. *)
  mutable pacing_pending : int;
  mutable pace_ev : unit -> unit;
  (* The epoch and slow-start timers use the same idiom: one persistent
     closure each, a first firing pushed at its absolute time with
     [Engine.schedule_unit_at], a re-arm one period after each firing
     with [Engine.schedule_unit], and a count of events in flight. Only
     the most recent push continues its chain; the events a stop, a
     restart or a slow-start exit leaves behind fire as no-ops, so the
     engine executes exactly the events cancellable [Engine.every]
     timers would (test_net checks this with a property). *)
  mutable epoch_pending : int;
  mutable epoch_ev : unit -> unit;
  mutable ss_pending : int;
  mutable ss_ev : unit -> unit;
}

(* Every point where [rate] changes records a [Rate_update] — the
   shaping oracle replays these against the packets actually enqueued
   to check conformance. Rate changes happen at epoch granularity, so
   the guard-and-record costs nothing measurable. *)
let[@corelite.hot] note_rate t =
  if Sim.Trace.want t.trace Sim.Trace.Rate_update then
    Sim.Trace.record t.trace ~time:(Sim.Engine.now t.engine)
      Sim.Trace.Rate_update ~a:t.id ~b:0 ~x:t.rate.v
      ~y:(match t.phase with Slow_start -> 0. | Linear -> 1.)

let[@corelite.hot] emit_one t =
  if t.active then begin
    t.emitted <- t.emitted + 1;
    t.emit ~now:(Sim.Engine.now t.engine)
  end

(* [Float.max t.rate.v 1e-6] spelled out: the call would box the
   unboxed rate once per packet. Same value, NaN included. *)
let[@corelite.hot] schedule_pace t =
  let rate = t.rate.v in
  let interval = 1. /. (if rate < 1e-6 then 1e-6 else rate) in
  t.pacing_pending <- t.pacing_pending + 1;
  Sim.Engine.schedule_unit t.engine ~delay:interval t.pace_ev

let[@corelite.hot] pace t =
  t.pacing_pending <- t.pacing_pending - 1;
  if t.running && t.pacing_pending = 0 then begin
    emit_one t;
    schedule_pace t
  end

let rate t = t.rate.v

let phase t = t.phase

let running t = t.running

let emitted t = t.emitted

let rate_floor t = Float.max t.params.min_rate t.params.floor

let exit_slow_start t =
  if t.phase = Slow_start then begin
    (* The halving is the response to any indication received so far;
       flush the pending count so it is not charged again at epoch end. *)
    ignore (t.collect ());
    t.rate.v <- Float.max (rate_floor t) (t.rate.v /. 2.);
    t.phase <- Linear;
    note_rate t
  end

let signal_congestion t = if t.running then exit_slow_start t

let on_epoch t =
  let m = t.collect () in
  (* An application-limited (idle) source neither probes for more rate
     nor reacts: there is nothing to pace. *)
  if t.active then
    match t.phase with
    | Slow_start ->
      (* Feedback during slow-start already triggered
         [signal_congestion] via the agent; a residual count here means
         the agent relies on epoch collection only, so honor it. *)
      if m > 0 then exit_slow_start t
    | Linear ->
      if m = 0 then begin
        t.silent <- t.silent + 1;
        (* Feedback-silence recovery (robustness extension, off by
           default): after [silence_epochs] feedback-free epochs the
           additive probe turns multiplicative. A long silence after
           sustained throttling usually means the feedback channel
           itself failed (marker loss, a core reset) and the flow is
           parked far below its share — restoring at [+alpha] per epoch
           would take minutes of simulated time that slow-start covered
           in seconds. Ordinary uncongested operation is unaffected:
           feedback arrives well before the threshold and resets the
           count. *)
        if t.params.silence_epochs > 0 && t.silent >= t.params.silence_epochs then
          t.rate.v <- t.rate.v *. t.params.restore
        else t.rate.v <- t.rate.v +. t.params.alpha;
        note_rate t
      end
      else begin
        t.silent <- 0;
        t.rate.v <- Float.max (rate_floor t) (t.rate.v -. (t.params.beta *. float_of_int m));
        note_rate t
      end

(* [on_epoch] calls the agent's [collect], which may stop or restart
   the source: the chain re-arms only if nothing superseded it. *)
let epoch_tick t =
  t.epoch_pending <- t.epoch_pending - 1;
  if t.running && t.epoch_pending = 0 then begin
    on_epoch t;
    if t.running && t.epoch_pending = 0 then begin
      t.epoch_pending <- 1;
      Sim.Engine.schedule_unit t.engine ~delay:t.params.epoch t.epoch_ev
    end
  end

let ss_tick t =
  t.ss_pending <- t.ss_pending - 1;
  if t.running && t.ss_pending = 0 && t.phase = Slow_start then begin
    t.rate.v <- t.rate.v *. 2.;
    note_rate t;
    if t.rate.v > t.params.ss_thresh then exit_slow_start t
    else begin
      t.ss_pending <- 1;
      Sim.Engine.schedule_unit t.engine ~delay:t.params.ss_period t.ss_ev
    end
  end

let create ~engine ?(id = -1) ?(epoch_offset = 0.) ~params ~emit ~collect () =
  (* Every rate, period and start offset is validated up front: a nan or
     non-positive value would not fail here but silently produce a nan
     pacing schedule (nan compares false against every guard), and the
     first visible symptom would be an engine that never fires. *)
  let positive what v =
    if not (Float.is_finite v && v > 0.) then
      invalid_arg (Printf.sprintf "Source.create: %s must be positive" what)
  in
  let non_negative what v =
    if not (Float.is_finite v && v >= 0.) then
      invalid_arg (Printf.sprintf "Source.create: %s must be non-negative" what)
  in
  positive "initial_rate" params.initial_rate;
  positive "epoch" params.epoch;
  positive "alpha" params.alpha;
  positive "beta" params.beta;
  positive "ss_thresh" params.ss_thresh;
  positive "ss_period" params.ss_period;
  non_negative "min_rate" params.min_rate;
  non_negative "floor" params.floor;
  if params.silence_epochs < 0 then
    invalid_arg "Source.create: silence_epochs must be non-negative";
  if
    params.silence_epochs > 0
    && not (Float.is_finite params.restore && params.restore > 1.)
  then invalid_arg "Source.create: restore must be a finite factor > 1";
  if not (Float.is_finite epoch_offset && epoch_offset >= 0.)
     || epoch_offset >= params.epoch
  then invalid_arg "Source.create: epoch_offset out of [0, epoch)";
  let t =
    {
      engine;
      id;
      trace = Sim.Engine.trace engine;
      params;
      epoch_offset;
      emit;
      collect;
      rate = { v = params.initial_rate };
      phase = Slow_start;
      silent = 0;
      running = false;
      active = true;
      emitted = 0;
      pacing_pending = 0;
      pace_ev = ignore;
      epoch_pending = 0;
      epoch_ev = ignore;
      ss_pending = 0;
      ss_ev = ignore;
    }
  in
  t.pace_ev <- (fun () -> pace t);
  t.epoch_ev <- (fun () -> epoch_tick t);
  t.ss_ev <- (fun () -> ss_tick t);
  t

let set_active t active = t.active <- active

let active t = t.active

let stop t = t.running <- false

let start t =
  stop t;
  ignore (t.collect ());
  (* A contracted floor is reserved capacity: the flow starts there. *)
  t.rate.v <- Float.max t.params.initial_rate t.params.floor;
  t.phase <- (if t.rate.v >= t.params.ss_thresh then Linear else Slow_start);
  t.silent <- 0;
  t.running <- true;
  note_rate t;
  let now = Sim.Engine.now t.engine in
  t.epoch_pending <- t.epoch_pending + 1;
  Sim.Engine.schedule_unit_at t.engine
    ~time:(now +. t.params.epoch +. t.epoch_offset)
    t.epoch_ev;
  if t.phase = Slow_start then begin
    t.ss_pending <- t.ss_pending + 1;
    Sim.Engine.schedule_unit_at t.engine
      ~time:(now +. t.params.ss_period +. t.epoch_offset)
      t.ss_ev
  end;
  emit_one t;
  schedule_pace t
