type t = {
  rng : Sim.Rng.t;
  pw_cap : float;
  rav : Sim.Stats.Ewma.t;
  wav : Sim.Stats.Ewma.t;
  mutable pw : float;
  mutable deficit : int;
  mutable epoch_markers : int;
}

let create ~rav_gain ~wav_gain ~pw_cap ~rng =
  if pw_cap <= 0. then invalid_arg "Stateless_selector.create: pw_cap must be positive";
  {
    rng;
    pw_cap;
    rav = Sim.Stats.Ewma.create ~gain:rav_gain;
    wav = Sim.Stats.Ewma.create ~gain:wav_gain;
    pw = 0.;
    deficit = 0;
    epoch_markers = 0;
  }

let rav t = Sim.Stats.Ewma.value t.rav

let pw t = t.pw

let deficit t = t.deficit

let[@corelite.hot] observe t pkt =
  let rn = pkt.Net.Packet.floats.rate in
  t.epoch_markers <- t.epoch_markers + 1;
  Sim.Stats.Ewma.update t.rav rn;
  if t.pw <= 0. then 0
  else begin
    let eligible = rn >= rav t in
    let selections =
      int_of_float t.pw
      (* lint: fault-ok -- the paper's probabilistic rounding, not loss *)
      + (if Sim.Rng.bernoulli t.rng (t.pw -. Float.of_int (int_of_float t.pw)) then 1 else 0)
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
  Sim.Stats.Ewma.reset t.rav;
  Sim.Stats.Ewma.reset t.wav;
  t.pw <- 0.;
  t.deficit <- 0;
  t.epoch_markers <- 0

let on_epoch t ~fn =
  if fn < 0. then invalid_arg "Stateless_selector.on_epoch: negative budget";
  Sim.Stats.Ewma.update t.wav (float_of_int t.epoch_markers);
  t.epoch_markers <- 0;
  t.deficit <- 0;
  let wav = Sim.Stats.Ewma.value t.wav in
  (* [pw] may exceed 1 (multiple feedback copies per marker); the cap
     bounds over-actuation of the delayed control loop and keeps a
     mis-estimated [wav] from triggering a feedback storm. *)
  t.pw <- (if Sim.Floats.is_zero fn || wav <= 0. then 0. else Float.min t.pw_cap (fn /. wav))
