(** Topology container: nodes, links and their forwarding state. *)

type t

val create : Sim.Engine.t -> t

val engine : t -> Sim.Engine.t

(** The topology's packet pool: the edge agents allocate from it, and
    links and edge sinks release into it (see {!Packet}). *)
val pool : t -> Packet.pool

(** [add_node t ~kind name] creates a node with a fresh id.
    @raise Invalid_argument if [name] is already taken. *)
val add_node : t -> kind:Node.kind -> string -> Node.t

(** [add_link t ~src ~dst ~bandwidth ~delay ~qdisc] creates the
    unidirectional link [src -> dst] and wires its delivery to [dst].
    @raise Invalid_argument if that directed link already exists. *)
val add_link :
  t ->
  src:Node.t ->
  dst:Node.t ->
  bandwidth:float ->
  delay:float ->
  qdisc:Qdisc.t ->
  Link.t

val nodes : t -> Node.t list

val links : t -> Link.t list

val find_node : t -> string -> Node.t option

val find_link : t -> src:Node.t -> dst:Node.t -> Link.t option

(** Links traversed by a path of nodes, in order.
    @raise Failure if two consecutive nodes are not connected. *)
val path_links : t -> Node.t list -> Link.t list

(** Sum of propagation delays along a node path (the control-plane
    latency used for feedback travelling back to the edge). *)
val path_delay : t -> Node.t list -> float

(** {1 Forwarding state}

    Packets forward by destination ({!Node.receive}): each node's table
    maps a destination host index to an output link, and host nodes
    deliver through one topology-wide flow-id-indexed sink table. Table
    entries and sinks stay installed when a flow retires, so in-flight
    packets still deliver. *)

(** [route_paths t paths] fills the tables of a hand-built network.
    Each path's last node becomes a host (numbered in order of first
    appearance, {!sink_dispatcher} as its sink) and every interior node
    gets an entry for it. The first node gets none: the injecting agent
    hands its packets straight to the path's first link.
    @raise Failure if two paths to one host leave a node on different
    links; the message names the node and the host.
    @raise Invalid_argument on a path shorter than two nodes. *)
val route_paths : t -> Node.t list list -> unit

(** [set_flow_sink t ~flow sink] installs (or replaces) the delivery
    callback for a flow. The table grows on demand.
    @raise Invalid_argument on a negative flow id. *)
val set_flow_sink : t -> flow:int -> (Packet.t -> unit) -> unit

(** One shared closure delivering a packet to its flow's registered
    sink — what builders install as every host node's [host_sink].
    @raise Failure for a flow with no sink installed. *)
val sink_dispatcher : t -> Packet.t -> unit
