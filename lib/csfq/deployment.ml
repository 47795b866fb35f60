type flow_spec = { flow : Net.Flow.t; floor : float }

let spec ?(floor = 0.) flow = { flow; floor }

type t = {
  topology : Net.Topology.t;
  agents : Edge.t Net.Flowtable.t;
  cores : Core.t list;
  core_links : Net.Link.t list;
  drops_by_flow : Net.Flowtable.Count.t;
  (* The per-link [on_drop] closures read [agents], so flows added
     after wiring (churn) become reachable by mutating that table;
     [params] and [rng] build mid-run agents the same way [build] does
     (mirrors Corelite.Deployment). *)
  params : Params.t;
  rng : Sim.Rng.t;
}

let build ?(attach_cores = true) ~params ~rng ~topology ~flows ~core_links () =
  let agents = Net.Flowtable.create () in
  let epoch = params.Params.source.Net.Source.epoch in
  List.iter
    (fun { flow; floor } ->
      let id = flow.Net.Flow.id in
      if Net.Flowtable.mem agents id then
        invalid_arg (Printf.sprintf "Csfq.Deployment.build: duplicate flow %d" id);
      (* Same timer desynchronization as the Corelite deployment. *)
      let epoch_offset = Sim.Rng.float rng epoch in
      Net.Flowtable.add agents id
        (Edge.create ~params ~topology ~flow ~floor ~epoch_offset ()))
    flows;
  let engine = Net.Topology.engine topology in
  let drops_by_flow = Net.Flowtable.Count.create () in
  let cores =
    List.filter_map
      (fun link ->
        (* Only the full CSFQ scheme installs core logic; the "plain"
           variant (DropTail/RED/FRED ablation) keeps the loss
           notification channel but no fair-share filtering. *)
        let core =
          if attach_cores then Some (Core.attach ~params ~rng:(Sim.Rng.split rng) link)
          else None
        in
        (* Any loss on the link is reported to the source after the
           reverse propagation delay; buffer overflows additionally
           shrink the fair-share estimate (CSFQ heuristic). *)
        link.Net.Link.on_drop <-
          Some
            (fun reason pkt ->
              let flow = pkt.Net.Packet.flow in
              Net.Flowtable.Count.incr drops_by_flow flow;
              (match (reason, core) with
              | Net.Link.Queue_full, Some core -> Core.note_overflow core
              | ( ( Net.Link.Queue_full | Net.Link.Filtered | Net.Link.Injected
                  | Net.Link.Down ),
                  _ ) -> ());
              match Net.Flowtable.find agents flow with
              | None -> ()
              | Some agent ->
                let delay = Edge.loss_delay agent ~link_id:link.Net.Link.id in
                ignore
                  (Sim.Engine.schedule engine ~delay (fun () -> Edge.note_loss agent)));
        core)
      core_links
  in
  { topology; agents; cores; core_links; drops_by_flow; params; rng }

let agent t id =
  match Net.Flowtable.find t.agents id with
  | Some a -> a
  | None -> raise Not_found

let agents t = List.rev (Net.Flowtable.fold t.agents (fun id a acc -> (id, a) :: acc) [])

let cores t = t.cores

let start_flow t id = Edge.start (agent t id)

let stop_flow t id = Edge.stop (agent t id)

let start_all t = Net.Flowtable.iter t.agents (fun _ a -> Edge.start a)

(* Dynamic flow lifecycle (churn) — same contract as
   Corelite.Deployment: per-flow edge state is created on arrival and
   aged out when silent, every transition is declared to the
   [Sim.Invariant] flow ledger and traced, and loss notifications
   toward a retired agent vanish in [Edge.note_loss]'s [running] guard. *)

let has_flow t id = Net.Flowtable.mem t.agents id

let live_flows t = Net.Flowtable.live t.agents

let add_flow t ?(floor = 0.) ?(size = 0) flow =
  let id = flow.Net.Flow.id in
  if Net.Flowtable.mem t.agents id then
    invalid_arg (Printf.sprintf "Csfq.Deployment.add_flow: duplicate flow %d" id);
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
  | None ->
    invalid_arg (Printf.sprintf "Csfq.Deployment.end_flow: unknown flow %d" id)
  | Some agent -> retire t id agent ~kind:`End ~idle:0.

let expire_idle t ~timeout =
  if timeout <= 0. then
    invalid_arg "Csfq.Deployment.expire_idle: timeout must be positive";
  let now = Sim.Engine.now (Net.Topology.engine t.topology) in
  (* Flowtable iteration is ascending flow-id order already. *)
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

let total_drops t =
  List.fold_left (fun acc link -> acc + link.Net.Link.drops) 0 t.core_links

let drops_of_flow t id = Net.Flowtable.Count.get t.drops_by_flow id
