(** Network nodes (edge routers, core routers).

    Nodes forward by destination only: a packet carries the destination
    host index its ingress stamped ({!Packet.dst}), and a node hands it
    to its own host sink or to the out-link its forwarding table names.
    No node holds per-flow state.

    {1 The forwarding table}

    A node's out-links are its {e ports}, numbered from 0 in [ports].
    Its table ([fib]) is one row of 2-byte port indexes by destination
    host, so an entry costs two bytes and a hit loads no option box;
    [0xFFFF] means no entry, and the row spans [fib_span] hosts. A node
    that forwards nothing (an ingress, a generated topology's host)
    holds an empty row. The record is private: the table is written
    only through {!set_table} and {!set_route}, and read through
    {!route} and {!receive}. *)

type kind = Edge | Core

type t = private {
  id : int;
  name : string;
  kind : kind;
  mutable ports : Link.t array;  (** out-links by port index *)
  mutable fib : Bytes.t;  (** port index by destination host, 2 bytes each *)
  mutable fib_span : int;  (** hosts the row spans *)
  mutable host : int;  (** own host index; [-1] for non-hosts *)
  mutable host_sink : Packet.t -> unit;
      (** consumes packets addressed to this host *)
}

val create : id:int -> name:string -> kind:kind -> t

(** Make the node host [host], delivering the packets addressed to it
    through [sink]. *)
val set_host : t -> host:int -> (Packet.t -> unit) -> unit

(** Ports a 2-byte table entry can name: 65,535 ([0xFFFF] is the empty
    entry). *)
val max_ports : int

(** [set_table t ~ports ~span next] installs a whole table: [ports]
    become the node's ports, and host [h < span] is forwarded on port
    [next h], or has no entry when [next h < 0].
    @raise Invalid_argument when [ports] holds more than {!max_ports}
    links (the message names the node and the count), or when [next]
    names a port past the end of [ports]. *)
val set_table : t -> ports:Link.t array -> span:int -> (int -> int) -> unit

(** [set_route t ~span ~host link] makes [link] the entry for [host],
    first widening the row to [span] hosts when it spans fewer (the new
    entries empty). [link] becomes the next port when it is not one
    yet.
    @raise Invalid_argument unless [0 <= host < span], or when a new
    port would exceed {!max_ports}. *)
val set_route : t -> span:int -> host:int -> Link.t -> unit

(** The out-link the table names for [host], or [None]: no entry, or a
    host beyond the row's span. *)
val route : t -> host:int -> Link.t option

(** Hosts the table spans: 0 on a node that forwards nothing. *)
val fib_span : t -> int

(** Forward a packet: to the host sink when [Packet.dst] is this node's
    host, else on the port the table holds for [Packet.dst].
    @raise Failure ["Node <name>: no FIB entry for host <dst>"] when
    the table holds none, an unstamped packet included. *)
val receive : t -> Packet.t -> unit

val is_edge : t -> bool
