(** The per-flow edge agents of a deployment and their lifecycle, for
    any scheme.

    Cores hold no per-flow state, so a flow's arrival and departure are
    edge-local: the edge creates an agent when the flow appears and
    reclaims it when the flow ends or goes silent, and the control
    channel the scheme wired at build time (Corelite's feedback, CSFQ's
    loss reports) finds agents by flow id in the table this module
    owns. {!Make} turns a scheme's agent operations into that table and
    lifecycle; each scheme's [Deployment] adds only its control
    channel. *)

(** A flow plus its contracted minimum rate (0 = no contract). *)
type flow_spec = { flow : Flow.t; floor : float }

val spec : ?floor:float -> Flow.t -> flow_spec

(** What the lifecycle needs of a scheme. *)
module type SCHEME = sig
  type agent

  type core

  (** Prefix of every [Invalid_argument] message, e.g.
      ["Csfq.Deployment"] in ["Csfq.Deployment.build: duplicate flow 1"].
      {!Make.create} reports as [build]. *)
  val name : string

  val start : agent -> unit

  val stop : agent -> unit

  (** Packets emitted and delivered so far. *)
  val sent : agent -> int

  val delivered : agent -> int

  (** Time of the agent's last packet emission. *)
  val last_activity : agent -> float
end

(** The deployment contract every scheme's [Deployment] includes.

    Each lifecycle transition is declared to the {!Sim.Invariant} flow
    ledger ([note_flow_created] / [note_flow_retired] /
    [note_flow_expired]) and recorded as a [Flow_start] / [Flow_end] /
    [Flow_expire] trace event, so churn oracles can prove the table
    never leaks: created = retired + {!live_flows}. The initial flows a
    deployment is built with are there from the start and are not
    declared. *)
module type S = sig
  type t

  type agent

  type core

  type nonrec flow_spec = flow_spec = { flow : Flow.t; floor : float }

  val spec : ?floor:float -> Flow.t -> flow_spec

  val agent : t -> int -> agent
  (** @raise Not_found for an unknown flow id. *)

  val agents : t -> (int * agent) list
  (** Sorted by flow id. *)

  val cores : t -> core list

  (** The topology the deployment was wired over. *)
  val topology : t -> Topology.t

  val start_flow : t -> int -> unit

  val stop_flow : t -> int -> unit

  val start_all : t -> unit

  (** [add_flow t flow] creates and starts an agent for a flow arriving
      mid-run; the control channel reaches it through the table, with
      no core-side signalling. Its epoch offset is drawn now. [size]
      (packets; 0 = open-ended) only annotates the [Flow_start] event.
      @raise Invalid_argument on a duplicate live flow id. *)
  val add_flow : t -> ?floor:float -> ?size:int -> Flow.t -> agent

  (** [end_flow t id] retires a flow that completed: stops its source
      and discards the agent. Its sink stays installed so in-flight
      packets still deliver; control signals already in flight die on
      the agent's [running] guard, so none is attributed to the flow
      after its [Flow_end] event.
      @raise Invalid_argument for an unknown (or already retired) id. *)
  val end_flow : t -> int -> unit

  (** [expire_idle t ~timeout] retires, as expired and in flow-id
      order, every agent whose last emission is at least [timeout]
      seconds old, and returns how many. Schedule it periodically for
      the paper's soft-state expiry.
      @raise Invalid_argument unless [timeout] is positive (NaN
      included). *)
  val expire_idle : t -> timeout:float -> int

  (** Whether a flow currently holds edge state. *)
  val has_flow : t -> int -> bool

  (** Number of flows currently holding edge state. *)
  val live_flows : t -> int

  (** Total packets lost on the core links. *)
  val total_drops : t -> int

  (** Core-link packet losses of one flow. *)
  val drops_of_flow : t -> int -> int
end

module Make (Scheme : SCHEME) : sig
  include S with type agent = Scheme.agent and type core = Scheme.core

  (** [create ~rng ~topology ~epoch ~make_agent ~flows ~core_links
      ~attach] builds the initial agents in list order, each with an
      epoch offset drawn uniformly from [[0, epoch)] (edge routers are
      not clock-synchronized), then lets [attach] install the scheme on
      [core_links], whose drops {!total_drops} sums. All offsets are
      drawn from [rng] before [attach] runs. [attach] receives the agent
      table its control channel reads and the per-flow drop counters
      behind {!drops_of_flow}. [rng] and [make_agent] are kept for
      {!add_flow}.
      @raise Invalid_argument on duplicate flow ids. *)
  val create :
    rng:Sim.Rng.t ->
    topology:Topology.t ->
    epoch:float ->
    make_agent:(flow:Flow.t -> floor:float -> epoch_offset:float -> agent) ->
    flows:flow_spec list ->
    core_links:Link.t list ->
    attach:(agents:agent Flowtable.t -> drops_by_flow:Flowtable.Count.t -> core list) ->
    t

  (** Enter a caller-built agent, as if it had been one of [flows]. *)
  val adopt : t -> int -> agent -> unit
end
