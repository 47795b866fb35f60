(** Network nodes (edge routers, core routers).

    Nodes forward by destination only: a packet carries the destination
    host index its ingress stamped ({!Packet.dst}), and a node hands it
    to its own host sink or to the link its flat per-destination table
    names. No node holds per-flow state. The topology builder fills
    the fields below ({!Topology.route_paths} for hand-built networks). *)

type kind = Edge | Core

type t = {
  id : int;
  name : string;
  kind : kind;
  mutable fib : Link.t option array;
      (** destination host index -> output link; [[||]] on a node that
          forwards nothing *)
  mutable host : int;  (** own host index; [-1] for non-hosts *)
  mutable host_sink : Packet.t -> unit;
      (** consumes packets addressed to this host *)
}

val create : id:int -> name:string -> kind:kind -> t

(** Forward a packet: to the host sink when [Packet.dst] is this node's
    host, else on the link the table holds for [Packet.dst].
    @raise Failure ["Node <name>: no FIB entry for host <dst>"] when
    the table holds none, an unstamped packet included. *)
val receive : t -> Packet.t -> unit

val is_edge : t -> bool
