let log = Logs.Src.create "csfq.core" ~doc:"CSFQ core-router logic"

module Log = (val Logs.src_log log : Logs.LOG)

type t = {
  params : Params.t;
  link : Net.Link.t;
  trace : Sim.Trace.t;
  rng : Sim.Rng.t;
  capacity : float;  (* pkt/s *)
  arrival : Rate_estimator.t;
  accepted : Rate_estimator.t;
  mutable alpha : float option;
  mutable congested : bool;
  mutable window_start : float;
  mutable tmp_alpha : float;  (* max label seen while uncongested *)
  mutable early_drops : int;
}

let link t = t.link

let alpha t = t.alpha

let congested t = t.congested

let arrival_rate t = Rate_estimator.value t.arrival

let accepted_rate t = Rate_estimator.value t.accepted

let early_drops t = t.early_drops

(* Every revision of the fair-share estimate goes through here so the
   trace sees each [Alpha_update] exactly once. *)
let set_alpha t ~now v =
  t.alpha <- Some v;
  if Sim.Trace.want t.trace Sim.Trace.Alpha_update then
    Sim.Trace.record t.trace ~time:now Sim.Trace.Alpha_update
      ~a:t.link.Net.Link.id ~b:0 ~x:v ~y:0.

(* Fair-share update, run on every arrival after the rate estimates
   (SIGCOMM '98 estimate_alpha). *)
let estimate_alpha t ~now pkt =
  let label = pkt.Net.Packet.floats.label in
  let a = Rate_estimator.value t.arrival in
  let f = Rate_estimator.value t.accepted in
  if a >= t.capacity then begin
    if not t.congested then begin
      t.congested <- true;
      t.window_start <- now
    end
    else if now > t.window_start +. t.params.Params.k_link then begin
      (match t.alpha with
      | Some alpha when f > 0. ->
        set_alpha t ~now (alpha *. t.capacity /. f);
        Log.debug (fun m ->
            m "t=%.3f link %s alpha %.2f -> %.2f (A=%.1f F=%.1f)" now
              t.link.Net.Link.name alpha
              (alpha *. t.capacity /. f)
              a f)
      | Some _ -> ()
      | None ->
        (* First congestion before any uncongested window: bootstrap
           from the labels seen so far. *)
        if t.tmp_alpha > 0. then set_alpha t ~now t.tmp_alpha);
      t.window_start <- now
    end
  end
  else begin
    if t.congested then begin
      t.congested <- false;
      t.window_start <- now;
      t.tmp_alpha <- 0.
    end
    else begin
      t.tmp_alpha <- Float.max t.tmp_alpha label;
      if now > t.window_start +. t.params.Params.k_link then begin
        set_alpha t ~now t.tmp_alpha;
        t.window_start <- now;
        t.tmp_alpha <- 0.
      end
    end
  end

(* [estimate_alpha] takes the packet, not its label: the label sits
   unboxed in the packet's float block, and passing it as a float
   argument would box it on every arrival. So the relabelling waits
   until [estimate_alpha] has read the arrival label, and applies the
   fair share that was in force before it ran. *)
let on_arrival t pkt =
  let now = Sim.Engine.now t.link.Net.Link.engine in
  let label = pkt.Net.Packet.floats.label in
  ignore (Rate_estimator.update t.arrival ~now ~amount:1.);
  let alpha_before = t.alpha in
  let drop_probability =
    match alpha_before with
    | Some alpha when label > 0. -> Float.max 0. (1. -. (alpha /. label))
    | Some _ | None -> 0.
  in
  let verdict =
    if Sim.Rng.bernoulli t.rng drop_probability then begin
      t.early_drops <- t.early_drops + 1;
      Net.Link.Drop
    end
    else begin
      ignore (Rate_estimator.update t.accepted ~now ~amount:1.);
      Net.Link.Pass
    end
  in
  estimate_alpha t ~now pkt;
  (match (verdict, alpha_before) with
  | Net.Link.Pass, Some alpha when label > alpha -> pkt.Net.Packet.floats.label <- alpha
  | (Net.Link.Pass | Net.Link.Drop), _ -> ());
  verdict

let note_overflow t =
  match t.alpha with
  | Some alpha ->
    set_alpha t
      ~now:(Sim.Engine.now t.link.Net.Link.engine)
      (alpha *. t.params.Params.overflow_penalty)
  | None -> ()

let attach ~params ~rng link =
  if link.Net.Link.hooks <> None then
    invalid_arg ("Csfq.Core.attach: link " ^ link.Net.Link.name ^ " already has hooks");
  let t =
    {
      params;
      link;
      trace = Sim.Engine.trace link.Net.Link.engine;
      rng;
      capacity = Net.Link.capacity_pps link;
      arrival = Rate_estimator.create ~k:params.Params.k_link;
      accepted = Rate_estimator.create ~k:params.Params.k_link;
      alpha = None;
      congested = false;
      window_start = Sim.Engine.now link.Net.Link.engine;
      tmp_alpha = 0.;
      early_drops = 0;
    }
  in
  link.Net.Link.hooks <-
    Some
      {
        Net.Link.on_arrival = (fun pkt -> on_arrival t pkt);
        on_queue_change = (fun _ -> ());
      };
  let m = Sim.Engine.metrics link.Net.Link.engine in
  let pfx = "csfq.core." ^ link.Net.Link.name ^ "." in
  Sim.Metrics.probe m (pfx ^ "early_drops")
    ~help:"probabilistic drops against the fair share"
    (fun () -> float_of_int t.early_drops);
  Sim.Metrics.probe m (pfx ^ "alpha")
    ~help:"fair-share estimate, pkt/s; -1 before the first estimate"
    (fun () -> match t.alpha with Some a -> a | None -> -1.);
  t

let detach t = t.link.Net.Link.hooks <- None
