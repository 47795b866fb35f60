(* The one module allowed to put random loss on the data path (lint
   rule L7): everything here draws from plan-derived Rng.scenario
   substreams, so a chaos run replays byte-identically from
   (plan seed, plan label) alone, and never perturbs the workload's own
   RNG streams. *)

type link_state = {
  link : Link.t;
  spec : Sim.Faultplan.link_fault;
  loss_rng : Sim.Rng.t;
  feedback_rng : Sim.Rng.t;
  mutable ge_bad : bool;  (* Gilbert–Elliott channel state, starts good *)
}

type t = {
  by_link : (int, link_state) Hashtbl.t;
  mutable injected_drops : int;
  mutable stripped_markers : int;
  mutable feedback_losses : int;
  mutable flaps_fired : int;
}

let injected_drops t = t.injected_drops

let stripped_markers t = t.stripped_markers

let feedback_losses t = t.feedback_losses

let flaps_fired t = t.flaps_fired

let draw_loss st =
  match st.spec.Sim.Faultplan.loss with
  | None -> false
  | Some (Sim.Faultplan.Bernoulli p) -> Sim.Rng.bernoulli st.loss_rng p
  | Some (Sim.Faultplan.Gilbert_elliott { p_good_bad; p_bad_good; loss_good; loss_bad })
    ->
    (* Per-packet channel-state transition, then a loss draw in the
       resulting state — the standard discrete-time formulation. *)
    let p_flip = if st.ge_bad then p_bad_good else p_good_bad in
    if Sim.Rng.bernoulli st.loss_rng p_flip then st.ge_bad <- not st.ge_bad;
    Sim.Rng.bernoulli st.loss_rng (if st.ge_bad then loss_bad else loss_good)

(* The per-packet verdict. Loss draws advance the stream only for
   packets the target covers, so e.g. a marker-only fault's replay is
   a function of the marker sequence alone. *)
let action t st pkt =
  match st.spec.Sim.Faultplan.target with
  | Sim.Faultplan.All_packets ->
    if draw_loss st then begin
      t.injected_drops <- t.injected_drops + 1;
      Link.Lose
    end
    else Link.Forward
  | Sim.Faultplan.Markers_only ->
    if Packet.has_marker pkt && draw_loss st then begin
      t.stripped_markers <- t.stripped_markers + 1;
      Link.Strip
    end
    else Link.Forward
  | Sim.Faultplan.Data_only ->
    if (not (Packet.has_marker pkt)) && draw_loss st then begin
      t.injected_drops <- t.injected_drops + 1;
      Link.Lose
    end
    else Link.Forward

let feedback_lost t link =
  match Hashtbl.find_opt t.by_link link.Link.id with
  | None -> false
  | Some st ->
    if Sim.Rng.bernoulli st.feedback_rng st.spec.Sim.Faultplan.feedback_loss then begin
      t.feedback_losses <- t.feedback_losses + 1;
      true
    end
    else false

let install t engine st =
  let spec = st.spec in
  Hashtbl.replace t.by_link st.link.Link.id st;
  if spec.Sim.Faultplan.loss <> None then
    Link.set_fault st.link (Some (fun pkt -> action t st pkt));
  List.iter
    (fun { Sim.Faultplan.down_at; up_at } ->
      Sim.Engine.schedule_at engine ~time:down_at (fun () ->
          t.flaps_fired <- t.flaps_fired + 1;
          Link.set_up st.link false);
      Sim.Engine.schedule_at engine ~time:up_at (fun () -> Link.set_up st.link true))
    spec.Sim.Faultplan.flaps

let apply ~topology plan =
  let t =
    {
      by_link = Hashtbl.create 16;
      injected_drops = 0;
      stripped_markers = 0;
      feedback_losses = 0;
      flaps_fired = 0;
    }
  in
  let engine = Topology.engine topology in
  let links = Topology.links topology in
  List.iter
    (fun (spec : Sim.Faultplan.link_fault) ->
      let targets =
        if String.equal spec.Sim.Faultplan.link "*" then links
        else
          match
            List.filter
              (fun l -> String.equal l.Link.name spec.Sim.Faultplan.link)
              links
          with
          | [] -> invalid_arg ("Fault.apply: unknown link " ^ spec.Sim.Faultplan.link)
          | ls -> ls
      in
      List.iter
        (fun link ->
          if Hashtbl.mem t.by_link link.Link.id then
            invalid_arg
              ("Fault.apply: link " ^ link.Link.name
             ^ " matched by two fault specs (merge them)");
          let stream channel =
            Sim.Rng.scenario ~seed:plan.Sim.Faultplan.seed
              ~id:(Sim.Faultplan.stream_id plan ~link:link.Link.name ~channel)
          in
          install t engine
            {
              link;
              spec;
              loss_rng = stream "loss";
              feedback_rng = stream "feedback";
              ge_bad = false;
            })
        targets)
    plan.Sim.Faultplan.link_faults;
  t
