include Net.Agents.Make (struct
  include Edge

  type agent = t

  type core = Core.t

  let name = "Deployment"
end)

(* Wire core-router logic for the agents: feedback selected at a core
   link travels back to the generating edge with the reverse-path
   propagation delay, then lands in the flow's agent. *)
let build ?fault ~params ~rng ~topology ~flows ~core_links () =
  let engine = Net.Topology.engine topology in
  create ~rng ~topology ~epoch:params.Params.source.Net.Source.epoch
    ~make_agent:(fun ~flow ~floor ~epoch_offset ->
      Edge.create ~params ~topology ~flow ~floor ~epoch_offset ())
    ~flows ~core_links
    ~attach:(fun ~agents ~drops_by_flow ->
      (* Corelite edges do not react to losses (feedback markers carry
         the signal), but per-flow loss accounting is an evaluation
         metric. *)
      List.iter
        (fun link ->
          link.Net.Link.on_drop <-
            Some
              (fun _reason pkt ->
                Net.Flowtable.Count.incr drops_by_flow pkt.Net.Packet.flow))
        core_links;
      List.map
        (fun link ->
          let send_feedback marker =
            (* Feedback markers travel the reverse path as control-plane
               callbacks, not packets, so link loss cannot touch them;
               the fault injector's per-link feedback channel models
               their loss instead. The draw happens at send time (not
               delivery), matching a marker corrupted on the wire. *)
            let lost =
              match fault with
              | Some f -> Net.Fault.feedback_lost f link
              | None -> false
            in
            if not lost then
              let flow_id = marker.Net.Packet.flow_id in
              match Net.Flowtable.find agents flow_id with
              | None -> ()
              | Some agent ->
                let delay = Edge.feedback_delay agent ~link_id:link.Net.Link.id in
                (* Never cancelled, so no handle: [schedule_unit] takes
                   the same seq a handle-returning [schedule] would. *)
                Sim.Engine.schedule_unit engine ~delay (fun () ->
                    Edge.receive_feedback agent ~link_id:link.Net.Link.id marker)
          in
          Core.attach ~params ~rng:(Sim.Rng.split rng) ~send_feedback link)
        core_links)

let of_agents ?fault ~params ~rng ~topology ~agents ~core_links () =
  let t = build ?fault ~params ~rng ~topology ~flows:[] ~core_links () in
  Hashtbl.iter (adopt t) agents;
  t

let total_feedback t =
  List.fold_left (fun acc core -> acc + Core.feedback_sent core) 0 (cores t)

(* Router resets are scheme state, so the deployment (not Net.Fault)
   interprets them: a core reset loses both the router's packet buffers
   (Link.reset) and its Corelite soft state (Core.reset); an edge reset
   wipes the agent's bg(f) table and restarts its adaptation. Targets
   are validated at schedule time so a typo in a plan fails the run
   immediately rather than silently resetting nothing. *)
let schedule_resets t plan =
  let engine = Net.Topology.engine (topology t) in
  List.iter
    (fun { Sim.Faultplan.reset_target; at } ->
      let fire =
        match reset_target with
        | Sim.Faultplan.Core_router name -> (
          match
            List.find_opt
              (fun core -> String.equal (Core.link core).Net.Link.name name)
              (cores t)
          with
          | None ->
            invalid_arg ("Deployment.schedule_resets: no core on link " ^ name)
          | Some core ->
            fun () ->
              Net.Link.reset (Core.link core);
              Core.reset core)
        | Sim.Faultplan.Edge_agent id -> (
          match agent t id with
          | exception Not_found ->
            invalid_arg
              (Printf.sprintf "Deployment.schedule_resets: no agent for flow %d" id)
          | agent -> fun () -> Edge.reset agent)
      in
      ignore (Sim.Engine.schedule_at engine ~time:at fire))
    plan.Sim.Faultplan.resets
