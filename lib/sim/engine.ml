type handle = { mutable cancelled : bool }

(* The queue payload is the bare action thunk: [schedule]/[schedule_at]
   push the caller's closure as it is, and only [every] wraps its
   action in a closure that consults a handle. *)
(* The clock is the queue's own all-float cell ({!Event_queue.clock}):
   popping an event writes its time there, so a step moves no float
   across the module boundary, and [run_until] advances it with one
   unboxed store. *)
type clock = Event_queue.clock = { mutable time : float }

type t = {
  clock : clock;
  mutable seq : int;
  mutable executed : int;
  queue : (unit -> unit) Event_queue.t;
  check : bool;
  trace : Trace.t;
  metrics : Metrics.t;
}

let create () =
  let queue = Event_queue.create () in
  {
    clock = Event_queue.clock queue;
    seq = 0;
    executed = 0;
    queue;
    check = Invariant.default ();
    trace = Trace.create ();
    metrics = Metrics.create ();
  }

let now t = t.clock.time

let clock t = t.clock

let trace t = t.trace

let metrics t = t.metrics

let executed t = t.executed

let events_scheduled t = t.seq

let pending t = Event_queue.length t.queue

let check_time label x =
  if not (Float.is_finite x) then invalid_arg (label ^ ": time not finite")

let[@inline] [@corelite.hot] push t ~time action =
  t.seq <- t.seq + 1;
  Event_queue.add t.queue ~key:time ~seq:t.seq action

(* An event [delay] after now joins the queue's FIFO lane of [delay],
   which keys it on the clock it shares with the engine: the clock
   never goes back, so the lane receives its events in (time, seq)
   order and only its head occupies the heap. *)
let[@inline] [@corelite.hot] push_after t ~delay action =
  t.seq <- t.seq + 1;
  Event_queue.add_delayed t.queue ~delay ~seq:t.seq action

(* One unboxed comparison rejects a negative, NaN or infinite delay
   and a [now +. delay] that overflows to infinity alike; the message
   is picked on the error path only. *)
let[@inline] [@corelite.hot] schedule t ~delay action =
  if not (delay >= 0. && t.clock.time +. delay < infinity) then
    invalid_arg
      (if delay < 0. && delay > neg_infinity then "Engine.schedule: negative delay"
       else "Engine.schedule: time not finite");
  push_after t ~delay action

let schedule_at t ~time action =
  check_time "Engine.schedule_at" time;
  if time < t.clock.time then invalid_arg "Engine.schedule_at: time in the past";
  push t ~time action

let every t ?start ~period action =
  check_time "Engine.every" period;
  if period <= 0. then invalid_arg "Engine.every: period must be positive";
  let handle = { cancelled = false } in
  (* One closure for the whole recurrence: re-pushing [fire] allocates
     nothing, so a periodic sampler costs zero heap per period. *)
  let rec fire () =
    if not handle.cancelled then begin
      action ();
      if not handle.cancelled then push_after t ~delay:period fire
    end
  in
  (* A first firing at an explicit [start] is not [period] after now,
     so it goes to the heap; every later one joins the period's lane. *)
  (match start with
  | None -> push_after t ~delay:period fire
  | Some s ->
    check_time "Engine.every" s;
    if s < t.clock.time then invalid_arg "Engine.every: start in the past";
    push t ~time:s fire);
  handle

let cancel handle = handle.cancelled <- true

(* [pop_exn] moves the clock to the event's time; [before] is an
   unboxed local, so the audit costs one comparison. *)
let[@corelite.hot] step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let before = t.clock.time in
    let action = Event_queue.pop_exn t.queue in
    if t.check then
      Invariant.require
        ~what:"Engine: event time behind the clock (time must be monotone)"
        (t.clock.time >= before);
    t.executed <- t.executed + 1;
    action ();
    true
  end

let[@corelite.hot] run t = while step t do () done

(* [due] is [false] on an empty queue, and [limit] arrives boxed, so
   the test passes it on without boxing anything. Top-level so
   [run_until] allocates nothing — a nested [let rec loop] capturing
   [t] and [limit] would build a closure per call. *)
let[@corelite.hot] rec drain_until t limit =
  if Event_queue.due t.queue limit && step t then drain_until t limit

let[@corelite.hot] run_until t limit =
  if Float.is_nan limit then invalid_arg "Engine.run_until: limit is NaN";
  drain_until t limit;
  if limit > t.clock.time then t.clock.time <- limit
