(* Every float a marked arrival reads or writes, in one all-float
   record: OCaml stores it flat, so the updates are unboxed stores and
   the arrival walks one block where two [Sim.Stats.Ewma.t] records and
   a [pw] cell used to cost three. [rav_init] and [wav_init] are the
   averages' initialized flags, 0. or 1. as in [Ewma]. *)
type floats = {
  rav_gain : float;
  wav_gain : float;
  pw_cap : float;
  mutable rav : float;
  mutable rav_init : float;
  mutable wav : float;
  mutable wav_init : float;
  mutable pw : float;
}

type t = {
  f : floats;
  rng : Sim.Rng.t;
  mutable deficit : int;
  mutable epoch_markers : int;
}

let create ~rav_gain ~wav_gain ~pw_cap ~rng =
  if pw_cap <= 0. then invalid_arg "Stateless_selector.create: pw_cap must be positive";
  let gain_ok g = g > 0. && g <= 1. in
  if not (gain_ok rav_gain && gain_ok wav_gain) then
    invalid_arg "Stateless_selector.create: gains must lie in (0, 1]";
  {
    f =
      {
        rav_gain;
        wav_gain;
        pw_cap;
        rav = 0.;
        rav_init = 0.;
        wav = 0.;
        wav_init = 0.;
        pw = 0.;
      };
    rng;
    deficit = 0;
    epoch_markers = 0;
  }

let rav t = t.f.rav

let pw t = t.f.pw

let deficit t = t.deficit

let[@corelite.hot] observe t pkt =
  let rn = pkt.Net.Packet.floats.rate in
  let f = t.f in
  t.epoch_markers <- t.epoch_markers + 1;
  (* [Sim.Stats.Ewma.update], term for term. *)
  if f.rav_init > 0. then f.rav <- f.rav +. (f.rav_gain *. (rn -. f.rav))
  else begin
    f.rav <- rn;
    f.rav_init <- 1.
  end;
  let pw = f.pw in
  if pw <= 0. then 0
  else begin
    let eligible = rn >= f.rav in
    let selections =
      int_of_float pw
      (* lint: fault-ok -- the paper's probabilistic rounding, not loss *)
      + (if Sim.Rng.bernoulli t.rng (pw -. Float.of_int (int_of_float pw)) then 1 else 0)
    in
    if selections > 0 then
      if eligible then selections
      else begin
        (* Swap these selections for future above-average markers. *)
        t.deficit <- t.deficit + selections;
        0
      end
    else if t.deficit > 0 && eligible then begin
      t.deficit <- t.deficit - 1;
      1
    end
    else 0
  end

(* Router-reset support: back to the just-created state. With [pw = 0]
   and an uninitialized running average, a freshly reset core selects
   nothing until [on_epoch] rebuilds a budget from new observations —
   no feedback burst from stale soft state. *)
let reset t =
  let f = t.f in
  f.rav <- 0.;
  f.rav_init <- 0.;
  f.wav <- 0.;
  f.wav_init <- 0.;
  f.pw <- 0.;
  t.deficit <- 0;
  t.epoch_markers <- 0

let on_epoch t ~fn =
  if fn < 0. then invalid_arg "Stateless_selector.on_epoch: negative budget";
  let f = t.f in
  let markers = float_of_int t.epoch_markers in
  if f.wav_init > 0. then f.wav <- f.wav +. (f.wav_gain *. (markers -. f.wav))
  else begin
    f.wav <- markers;
    f.wav_init <- 1.
  end;
  t.epoch_markers <- 0;
  t.deficit <- 0;
  let wav = f.wav in
  (* [pw] may exceed 1 (multiple feedback copies per marker); the cap
     bounds over-actuation of the delayed control loop and keeps a
     mis-estimated [wav] from triggering a feedback storm. *)
  f.pw <- (if Sim.Floats.is_zero fn || wav <= 0. then 0. else Float.min f.pw_cap (fn /. wav))
