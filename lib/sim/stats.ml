module Time_weighted = struct
  type t = {
    mutable window_start : float;
    mutable last_update : float;
    mutable current : float;
    mutable integral : float;
  }

  let create ~now ~init =
    { window_start = now; last_update = now; current = init; integral = 0. }

  let[@corelite.hot] accumulate t ~now =
    if now < t.last_update then invalid_arg "Time_weighted.set: time went backwards";
    t.integral <- t.integral +. ((now -. t.last_update) *. t.current);
    t.last_update <- now

  let[@corelite.hot] set t ~now v =
    accumulate t ~now;
    t.current <- v

  let value t = t.current

  let average t ~now =
    accumulate t ~now;
    let span = now -. t.window_start in
    if span <= 0. then t.current else t.integral /. span

  let reset t ~now =
    accumulate t ~now;
    t.window_start <- now;
    t.integral <- 0.
end

module Ewma = struct
  (* All-float record: OCaml stores it flat, so [update]'s stores are
     unboxed. [initialized] is encoded as 0. / 1. on purpose — a bool
     field would demote the record to mixed representation, and then
     every [avg] write would box a fresh float (typelint T1 flags that
     pattern; [update] runs per feedback sample). *)
  type t = { gain : float; mutable avg : float; mutable initialized : float }

  let create ~gain =
    if gain <= 0. || gain > 1. then invalid_arg "Ewma.create: gain out of (0, 1]";
    { gain; avg = 0.; initialized = 0. }

  let[@corelite.hot] update t x =
    if t.initialized > 0. then t.avg <- t.avg +. (t.gain *. (x -. t.avg))
    else begin
      t.avg <- x;
      t.initialized <- 1.
    end

  let value t = t.avg

  let is_initialized t = t.initialized > 0.

  let reset t =
    t.avg <- 0.;
    t.initialized <- 0.
end

module Welford = struct
  (* All-float on purpose, [n] included: a [mutable n : int] field
     would make the record mixed and box every [mean]/[m2] store (see
     Ewma above). A float count is exact up to 2^53 observations. *)
  type t = { mutable n : float; mutable mean : float; mutable m2 : float }

  let create () = { n = 0.; mean = 0.; m2 = 0. }

  let[@corelite.hot] add t x =
    t.n <- t.n +. 1.;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = int_of_float t.n

  let mean t = t.mean

  let variance t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)

  let stddev t = sqrt (variance t)
end
