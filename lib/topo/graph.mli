(** Flat-array topology graphs.

    A graph is a fixed set of nodes and {e directed} links; every
    undirected edge the builders declare expands into two directed
    links, so link ids map one-to-one onto the unidirectional
    {!Net.Link}s a simulation instantiates. Link ids are assigned in
    sorted [(src, dst)] order — a pure function of the edge set — so
    regenerating a graph from the same parameters is byte-identical.

    {e Hosts} are the traffic-terminating nodes ({!Host} in a fat-tree,
    every {!Router} in an AS graph), indexed densely [0 .. n_hosts-1];
    the host index is what {!Fib} routes on and what {!Net.Packet.dst}
    carries. *)

type kind = Host | Edge_switch | Agg_switch | Core_switch | Router

type t

(** [make ~kinds ~edges] builds a graph over nodes [0 .. n-1] (kinds)
    from an undirected edge list. Edge order is irrelevant.
    @raise Invalid_argument on out-of-range endpoints, self-loops,
    duplicate edges, or fewer than two traffic-terminating nodes. *)
val make : kinds:kind array -> edges:(int * int) list -> t

val n_nodes : t -> int

(** Directed link count (twice the undirected edge count). *)
val n_links : t -> int

val n_hosts : t -> int

val kind : t -> int -> kind

(** Node id of host index [h]. *)
val host : t -> int -> int

(** Host index of a node, [-1] for a pure switch. *)
val host_of_node : t -> int -> int

val link_src : t -> int -> int

val link_dst : t -> int -> int

val out_degree : t -> int -> int

(** Iterate the out-link ids of a node, ascending destination order. *)
val iter_out : t -> int -> (int -> unit) -> unit

(** Unique printable node name ("h12", "e129", "c1340", "r7"). *)
val label : t -> int -> string

(** Number of nodes reachable from [v] (including [v]) — connectivity
    witness for the property tests. *)
val reachable : t -> int -> int
