(* All-float record, [seen] included (0. before the first arrival,
   1. after), as Sim.Stats.Ewma: a [float option] field would make the
   record mixed, and then every arrival would box the new rate and a
   [Some now] — one pair per packet and per core hop, each promoted
   because the long-lived estimator points at it. *)
type t = {
  k : float;
  mutable rate : float;
  mutable last : float;  (* time of last arrival, once [seen] *)
  mutable seen : float;
}

let create ~k =
  if k <= 0. then invalid_arg "Rate_estimator.create: k must be positive";
  { k; rate = 0.; last = 0.; seen = 0. }

let[@corelite.hot] update t ~now ~amount =
  if t.seen > 0. then begin
    let gap = now -. t.last in
    if gap <= 1e-12 then t.rate <- t.rate +. (amount /. t.k)
    else begin
      let decay = exp (-.gap /. t.k) in
      t.rate <- ((1. -. decay) *. amount /. gap) +. (decay *. t.rate)
    end
  end
  else t.rate <- amount /. t.k;
  t.last <- now;
  t.seen <- 1.

let value t = t.rate

let read t ~now =
  if t.seen > 0. then
    let gap = now -. t.last in
    if gap <= 0. then t.rate else t.rate *. exp (-.gap /. t.k)
  else 0.
