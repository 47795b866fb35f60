(** Wires a full Corelite deployment onto a topology.

    Creates one {!Edge} agent per flow, attaches {!Core} logic to the
    given core links, and connects the control plane: feedback selected
    at a core link travels back to the marker's generating edge with the
    reverse-path propagation delay, then lands in the flow's agent. *)

include Net.Agents.S with type agent = Edge.t and type core = Core.t

(** [build ~params ~rng ~topology ~flows ~core_links] constructs all
    agents and core logic. Flows are not started.

    [fault] connects the control plane to a fault injector: each
    feedback marker a core sends first consults the injector's
    per-link feedback-loss channel ({!Net.Fault.feedback_lost}) and is
    suppressed when it fires. Feedback travels as direct callbacks, not
    packets, so the data-path loss models cannot reach it — this is the
    deterministic stand-in. Omitted (or with links the plan does not
    cover), feedback delivery is untouched and no draws are consumed.
    @raise Invalid_argument on duplicate flow ids. *)
val build :
  ?fault:Net.Fault.t ->
  params:Params.t ->
  rng:Sim.Rng.t ->
  topology:Net.Topology.t ->
  flows:flow_spec list ->
  core_links:Net.Link.t list ->
  unit ->
  t

(** Like {!build}, but for agents constructed by the caller (e.g. the
    edges underlying {!Aggregate}s): only attaches the core logic and
    wires the feedback control plane. *)
val of_agents :
  ?fault:Net.Fault.t ->
  params:Params.t ->
  rng:Sim.Rng.t ->
  topology:Net.Topology.t ->
  agents:(int, Edge.t) Hashtbl.t ->
  core_links:Net.Link.t list ->
  unit ->
  t

(** Total feedback markers sent by all core links. *)
val total_feedback : t -> int

(** Schedule the plan's router resets on the simulation clock. Router
    resets are scheme state, so the deployment interprets them (the
    injector handles the scheme-agnostic faults): [Core_router name]
    purges that core link's buffers ({!Net.Link.reset}) and wipes its
    Corelite soft state ({!Core.reset}); [Edge_agent flow] wipes the
    agent's adaptation state ({!Edge.reset}). Call after [build], before
    running.
    @raise Invalid_argument for a reset naming a link without a core or
    an unknown flow id. *)
val schedule_resets : t -> Sim.Faultplan.t -> unit
