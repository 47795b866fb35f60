type flow_spec = { flow : Net.Flow.t; floor : float }

let spec ?(floor = 0.) flow = { flow; floor }

type t = {
  topology : Net.Topology.t;
  agents : Edge.t Net.Flowtable.t;
  cores : Core.t list;
  core_links : Net.Link.t list;
  drops_by_flow : Net.Flowtable.Count.t;
  (* The feedback control plane reads [agents] through the per-core
     [send_feedback] closures, so flows added after wiring (churn)
     become reachable by mutating that table; [params] and [rng] are
     kept to build mid-run agents the same way [build] does. *)
  params : Params.t;
  rng : Sim.Rng.t;
}

(* Wire core-router logic for a set of pre-built agents: feedback
   selected at a core link travels back to the generating edge with the
   reverse-path propagation delay, then lands in the flow's agent. *)
let of_table ?fault ~params ~rng ~topology ~agents ~core_links () =
  let engine = Net.Topology.engine topology in
  (* Corelite edges do not react to losses (feedback markers carry the
     signal), but per-flow loss accounting is an evaluation metric. *)
  let drops_by_flow = Net.Flowtable.Count.create () in
  List.iter
    (fun link ->
      link.Net.Link.on_drop <-
        Some
          (fun _reason pkt ->
            Net.Flowtable.Count.incr drops_by_flow pkt.Net.Packet.flow))
    core_links;
  let cores =
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
              ignore
                (Sim.Engine.schedule engine ~delay (fun () ->
                     Edge.receive_feedback agent ~link_id:link.Net.Link.id marker))
        in
        Core.attach ~params ~rng:(Sim.Rng.split rng) ~send_feedback link)
      core_links
  in
  { topology; agents; cores; core_links; drops_by_flow; params; rng }

let of_agents ?fault ~params ~rng ~topology ~agents ~core_links () =
  let table = Net.Flowtable.create () in
  Hashtbl.iter (fun id agent -> Net.Flowtable.set table id agent) agents;
  of_table ?fault ~params ~rng ~topology ~agents:table ~core_links ()

let build ?fault ~params ~rng ~topology ~flows ~core_links () =
  let agents = Net.Flowtable.create () in
  let epoch = params.Params.source.Net.Source.epoch in
  List.iter
    (fun { flow; floor } ->
      let id = flow.Net.Flow.id in
      if Net.Flowtable.mem agents id then
        invalid_arg (Printf.sprintf "Deployment.build: duplicate flow %d" id);
      (* Edge routers are not clock-synchronized: give each agent a
         random timer phase so adaptation steps do not align. *)
      let epoch_offset = Sim.Rng.float rng epoch in
      Net.Flowtable.add agents id
        (Edge.create ~params ~topology ~flow ~floor ~epoch_offset ()))
    flows;
  of_table ?fault ~params ~rng ~topology ~agents ~core_links ()

let agent t id =
  match Net.Flowtable.find t.agents id with
  | Some a -> a
  | None -> raise Not_found

let agents t = List.rev (Net.Flowtable.fold t.agents (fun id a acc -> (id, a) :: acc) [])

let cores t = t.cores

let topology t = t.topology

let start_flow t id = Edge.start (agent t id)

let stop_flow t id = Edge.stop (agent t id)

let start_all t = Net.Flowtable.iter t.agents (fun _ a -> Edge.start a)

(* Dynamic flow lifecycle (churn). The paper's soft-state story: edges
   create per-flow state when a flow first appears and age it out when
   the flow goes silent; cores never hold per-flow state, so nothing
   else in the deployment needs to learn about arrivals or departures —
   the feedback closures simply stop finding retired flows. Every
   transition is declared to the [Sim.Invariant] flow ledger and traced
   so churn oracles can prove the flow table never leaks. *)

let has_flow t id = Net.Flowtable.mem t.agents id

let live_flows t = Net.Flowtable.live t.agents

let add_flow t ?(floor = 0.) ?(size = 0) flow =
  let id = flow.Net.Flow.id in
  if Net.Flowtable.mem t.agents id then
    invalid_arg (Printf.sprintf "Deployment.add_flow: duplicate flow %d" id);
  let epoch = t.params.Params.source.Net.Source.epoch in
  let epoch_offset = Sim.Rng.float t.rng epoch in
  let agent = Edge.create ~params:t.params ~topology:t.topology ~flow ~floor ~epoch_offset () in
  Net.Flowtable.add t.agents id agent;
  Sim.Invariant.note_flow_created ();
  let engine = Net.Topology.engine t.topology in
  let trace = Sim.Engine.trace engine in
  if Sim.Trace.want trace Sim.Trace.Flow_start then
    Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_start
      ~a:id
      ~b:(Net.Flow.ingress flow).Net.Node.id
      ~x:flow.Net.Flow.weight ~y:(float_of_int size);
  Edge.start agent;
  agent

(* Routes stay installed on retirement (in-flight packets must still
   reach their sink; see [Edge.stop]); what is reclaimed is the edge's
   per-flow soft state. Feedback already scheduled toward a retired
   agent lands in [Edge.receive_feedback]'s [running] guard and is
   dropped without trace, so no feedback is ever attributed to a flow
   after its end or expiry event. *)
let retire t id agent ~kind ~idle =
  Edge.stop agent;
  Net.Flowtable.remove t.agents id;
  let engine = Net.Topology.engine t.topology in
  let trace = Sim.Engine.trace engine in
  match kind with
  | `End ->
    Sim.Invariant.note_flow_retired ();
    if Sim.Trace.want trace Sim.Trace.Flow_end then
      Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_end
        ~a:id ~b:0
        ~x:(float_of_int (Edge.sent agent))
        ~y:(float_of_int (Edge.delivered agent))
  | `Expire ->
    Sim.Invariant.note_flow_expired ();
    if Sim.Trace.want trace Sim.Trace.Flow_expire then
      Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_expire
        ~a:id ~b:0 ~x:idle ~y:0.

let end_flow t id =
  match Net.Flowtable.find t.agents id with
  | None -> invalid_arg (Printf.sprintf "Deployment.end_flow: unknown flow %d" id)
  | Some agent -> retire t id agent ~kind:`End ~idle:0.

let expire_idle t ~timeout =
  if timeout <= 0. then
    invalid_arg "Deployment.expire_idle: timeout must be positive";
  let now = Sim.Engine.now (Net.Topology.engine t.topology) in
  (* Flowtable iteration is already in ascending flow-id order, so
     expiry events replay byte-identically with no sort step. *)
  let stale =
    List.rev
      (Net.Flowtable.fold t.agents
         (fun id agent acc ->
           let idle = now -. Edge.last_activity agent in
           if idle >= timeout then (id, agent, idle) :: acc else acc)
         [])
  in
  List.iter (fun (id, agent, idle) -> retire t id agent ~kind:`Expire ~idle) stale;
  List.length stale

let total_feedback t =
  List.fold_left (fun acc core -> acc + Core.feedback_sent core) 0 t.cores

let total_drops t =
  List.fold_left (fun acc link -> acc + link.Net.Link.drops) 0 t.core_links

let drops_of_flow t id = Net.Flowtable.Count.get t.drops_by_flow id

(* Router resets are scheme state, so the deployment (not Net.Fault)
   interprets them: a core reset loses both the router's packet buffers
   (Link.reset) and its Corelite soft state (Core.reset); an edge reset
   wipes the agent's bg(f) table and restarts its adaptation. Targets
   are validated at schedule time so a typo in a plan fails the run
   immediately rather than silently resetting nothing. *)
let schedule_resets t plan =
  let engine = Net.Topology.engine t.topology in
  List.iter
    (fun { Sim.Faultplan.reset_target; at } ->
      let fire =
        match reset_target with
        | Sim.Faultplan.Core_router name -> (
          match
            List.find_opt
              (fun core -> String.equal (Core.link core).Net.Link.name name)
              t.cores
          with
          | None ->
            invalid_arg ("Deployment.schedule_resets: no core on link " ^ name)
          | Some core ->
            fun () ->
              Net.Link.reset (Core.link core);
              Core.reset core)
        | Sim.Faultplan.Edge_agent id -> (
          match Net.Flowtable.find t.agents id with
          | None ->
            invalid_arg
              (Printf.sprintf "Deployment.schedule_resets: no agent for flow %d" id)
          | Some agent -> fun () -> Edge.reset agent)
      in
      ignore (Sim.Engine.schedule_at engine ~time:at fire))
    plan.Sim.Faultplan.resets
