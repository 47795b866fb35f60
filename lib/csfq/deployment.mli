(** Wires a full weighted-CSFQ deployment onto a topology: one {!Edge}
    agent per flow, {!Core} logic on each core link, and loss
    indications travelling back to the source agent with the
    reverse-path propagation delay. *)

include Net.Agents.S with type agent = Edge.t and type core = Core.t

(** [attach_cores] (default true) controls whether the CSFQ per-link
    logic is installed. With [false] the deployment degenerates to
    plain loss-driven adaptive sources over whatever queue discipline
    the links carry — the DropTail/RED/FRED comparator of the
    related-work ablation.
    @raise Invalid_argument on duplicate flow ids. *)
val build :
  ?attach_cores:bool ->
  params:Params.t ->
  rng:Sim.Rng.t ->
  topology:Net.Topology.t ->
  flows:flow_spec list ->
  core_links:Net.Link.t list ->
  unit ->
  t
