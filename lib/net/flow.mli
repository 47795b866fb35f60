(** Edge-to-edge flows.

    A flow is the paper's unit of service: it enters the cloud at an
    ingress edge router, follows a fixed path of nodes, and leaves at an
    egress edge router. Its [weight] is the rate weight of the flow's
    rate class. *)

type t = { id : int; weight : float; path : Node.t list }

val make : id:int -> weight:float -> path:Node.t list -> t
(** @raise Invalid_argument on a non-positive or non-finite weight or a
    path shorter than two nodes. *)

val ingress : t -> Node.t

val egress : t -> Node.t

(** Links the flow traverses, in path order. *)
val links : t -> Topology.t -> Link.t list

(** The link leaving the ingress, where an injecting agent hands every
    packet of the flow ({!Topology.route_paths} gives the ingress no
    table entry). *)
val first_link : t -> Topology.t -> Link.t

(** Propagation delay from [link]'s upstream node back to the flow's
    ingress edge, assuming symmetric links: the sum of delays of the
    path links upstream of [link]. [None] if the flow does not traverse
    [link]. Used to time control-plane feedback and loss indications. *)
val upstream_delay : t -> Topology.t -> Link.t -> float option

(** The flow's path flattened for the control plane: each path link's
    id beside its {!upstream_delay}, built once per flow so that timing
    a feedback or loss indication scans at most path-length ints. *)
type delays

val delays : t -> Topology.t -> delays

(** [delay_to d ~link_id] is the {!upstream_delay} of link [link_id],
    bit for bit, or [0.] when the path does not cross it. *)
val delay_to : delays -> link_id:int -> float

(** [position d ~link_id] is the index of link [link_id] in the flow's
    path (0 for the ingress's link), found by the same scan as
    {!delay_to}, or [-1] when the path does not cross it. Per-flow
    state kept per path link can live in an array indexed by it. *)
val position : delays -> link_id:int -> int
