type distribution = Exponential | Pareto of float

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  distribution : distribution;
  on_mean : float;
  off_mean : float;
  set : bool -> unit;
  mutable stopped : bool;
  mutable transitions : int;
}

let rec flip t state () =
  if not t.stopped then begin
    t.set state;
    t.transitions <- t.transitions + 1;
    let mean = if state then t.on_mean else t.off_mean in
    let hold =
      (* Not arrival-process sampling: these draw the on/off hold times
         of one already-arrived source, from the caller's RNG, under a
         plan Workload.Arrivals produced. *)
      match t.distribution with
      | Exponential -> Sim.Rng.exponential t.rng ~mean (* lint: churn-ok *)
      | Pareto shape -> Sim.Rng.pareto t.rng ~shape ~mean (* lint: churn-ok *)
    in
    Sim.Engine.schedule t.engine ~delay:hold (flip t (not state))
  end

let start ~engine ~rng ?(distribution = Exponential) ~on_mean ~off_mean set =
  (* Finiteness matters as much as sign: a nan mean passes [<= 0.] and
     turns every hold time into nan, scheduling the flip at a nan
     timestamp. *)
  if
    not
      (Float.is_finite on_mean && on_mean > 0. && Float.is_finite off_mean
     && off_mean > 0.)
  then invalid_arg "Onoff.start: means must be positive";
  (match distribution with
  | Pareto shape when not (Float.is_finite shape && shape > 1.) ->
    invalid_arg "Onoff.start: Pareto shape must exceed 1"
  | Pareto _ | Exponential -> ());
  let t =
    {
      engine;
      rng;
      distribution;
      on_mean;
      off_mean;
      set;
      stopped = false;
      transitions = -1;
    }
  in
  flip t true ();
  t

let stop t = t.stopped <- true

let transitions t = t.transitions
