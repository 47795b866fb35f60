type flow_spec = { flow : Flow.t; floor : float }

let spec ?(floor = 0.) flow = { flow; floor }

module type SCHEME = sig
  type agent

  type core

  val name : string

  val start : agent -> unit

  val stop : agent -> unit

  val sent : agent -> int

  val delivered : agent -> int

  val last_activity : agent -> float
end

module type S = sig
  type t

  type agent

  type core

  type nonrec flow_spec = flow_spec = { flow : Flow.t; floor : float }

  val spec : ?floor:float -> Flow.t -> flow_spec

  val agent : t -> int -> agent

  val agents : t -> (int * agent) list

  val cores : t -> core list

  val topology : t -> Topology.t

  val start_flow : t -> int -> unit

  val stop_flow : t -> int -> unit

  val start_all : t -> unit

  val add_flow : t -> ?floor:float -> ?size:int -> Flow.t -> agent

  val end_flow : t -> int -> unit

  val expire_idle : t -> timeout:float -> int

  val has_flow : t -> int -> bool

  val live_flows : t -> int

  val total_drops : t -> int

  val drops_of_flow : t -> int -> int
end

module Make (Scheme : SCHEME) = struct
  type agent = Scheme.agent

  type core = Scheme.core

  type nonrec flow_spec = flow_spec = { flow : Flow.t; floor : float }

  let spec = spec

  type t = {
    topology : Topology.t;
    agents : agent Flowtable.t;
    cores : core list;
    core_links : Link.t list;
    drops_by_flow : Flowtable.Count.t;
    (* The scheme's control channel reads [agents], so flows added after
       wiring (churn) become reachable by mutating that table; [rng],
       [epoch] and [make_agent] build mid-run agents the way [create]
       built the first ones. *)
    rng : Sim.Rng.t;
    epoch : float;
    make_agent : flow:Flow.t -> floor:float -> epoch_offset:float -> agent;
  }

  let create ~rng ~topology ~epoch ~make_agent ~flows ~core_links ~attach =
    let agents = Flowtable.create () in
    List.iter
      (fun { flow; floor } ->
        let id = flow.Flow.id in
        if Flowtable.mem agents id then
          invalid_arg (Printf.sprintf "%s.build: duplicate flow %d" Scheme.name id);
        (* Edge routers are not clock-synchronized: give each agent a
           random timer phase so adaptation steps do not align. *)
        let epoch_offset = Sim.Rng.float rng epoch in
        Flowtable.add agents id (make_agent ~flow ~floor ~epoch_offset))
      flows;
    let drops_by_flow = Flowtable.Count.create () in
    let cores = attach ~agents ~drops_by_flow in
    { topology; agents; cores; core_links; drops_by_flow; rng; epoch; make_agent }

  let adopt t id agent = Flowtable.set t.agents id agent

  let agent t id =
    match Flowtable.find t.agents id with
    | Some a -> a
    | None -> raise Not_found

  let agents t = List.rev (Flowtable.fold t.agents (fun id a acc -> (id, a) :: acc) [])

  let cores t = t.cores

  let topology t = t.topology

  let start_flow t id = Scheme.start (agent t id)

  let stop_flow t id = Scheme.stop (agent t id)

  let start_all t = Flowtable.iter t.agents (fun _ a -> Scheme.start a)

  let has_flow t id = Flowtable.mem t.agents id

  let live_flows t = Flowtable.live t.agents

  let add_flow t ?(floor = 0.) ?(size = 0) flow =
    let id = flow.Flow.id in
    if Flowtable.mem t.agents id then
      invalid_arg (Printf.sprintf "%s.add_flow: duplicate flow %d" Scheme.name id);
    let epoch_offset = Sim.Rng.float t.rng t.epoch in
    let agent = t.make_agent ~flow ~floor ~epoch_offset in
    Flowtable.add t.agents id agent;
    Sim.Invariant.note_flow_created ();
    let engine = Topology.engine t.topology in
    let trace = Sim.Engine.trace engine in
    if Sim.Trace.want trace Sim.Trace.Flow_start then
      Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_start ~a:id
        ~b:(Flow.ingress flow).Node.id ~x:flow.Flow.weight ~y:(float_of_int size);
    Scheme.start agent;
    agent

  (* The sink stays installed on retirement (in-flight packets must
     still deliver); what is reclaimed is the edge's per-flow soft
     state. A control signal already scheduled toward a retired agent
     lands in the agent's [running] guard and is dropped without trace,
     so nothing is attributed to a flow after its end or expiry event. *)
  let retire t id agent ~kind ~idle =
    Scheme.stop agent;
    Flowtable.remove t.agents id;
    let engine = Topology.engine t.topology in
    let trace = Sim.Engine.trace engine in
    match kind with
    | `End ->
      Sim.Invariant.note_flow_retired ();
      if Sim.Trace.want trace Sim.Trace.Flow_end then
        Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_end ~a:id ~b:0
          ~x:(float_of_int (Scheme.sent agent))
          ~y:(float_of_int (Scheme.delivered agent))
    | `Expire ->
      Sim.Invariant.note_flow_expired ();
      if Sim.Trace.want trace Sim.Trace.Flow_expire then
        Sim.Trace.record trace ~time:(Sim.Engine.now engine) Sim.Trace.Flow_expire ~a:id
          ~b:0 ~x:idle ~y:0.

  let end_flow t id =
    match Flowtable.find t.agents id with
    | None -> invalid_arg (Printf.sprintf "%s.end_flow: unknown flow %d" Scheme.name id)
    | Some agent -> retire t id agent ~kind:`End ~idle:0.

  let expire_idle t ~timeout =
    (* Written so that NaN fails too: every comparison with NaN is false. *)
    if not (timeout > 0.) then
      invalid_arg (Scheme.name ^ ".expire_idle: timeout must be positive");
    let now = Sim.Engine.now (Topology.engine t.topology) in
    (* Flowtable iteration is already in ascending flow-id order, so
       expiry events replay byte-identically with no sort step. *)
    let stale =
      List.rev
        (Flowtable.fold t.agents
           (fun id agent acc ->
             let idle = now -. Scheme.last_activity agent in
             if idle >= timeout then (id, agent, idle) :: acc else acc)
           [])
    in
    List.iter (fun (id, agent, idle) -> retire t id agent ~kind:`Expire ~idle) stale;
    List.length stale

  let total_drops t = List.fold_left (fun acc link -> acc + link.Link.drops) 0 t.core_links

  let drops_of_flow t id = Flowtable.Count.get t.drops_by_flow id
end
