(** Shared shortest-path forwarding tables (one BFS per destination
    host, computed once per topology).

    The table answers "at node [v], which directed link leads toward
    host [h]?" — the destination-indexed forwarding state
    [Workload.Network.of_topo] installs on every node. Equal-cost next hops are broken by
    a deterministic hash of [(v, h)], spreading load ECMP-style while
    keeping the table a pure function of the graph. *)

type t

val compute : Graph.t -> t

(** Directed link id to take at [node] toward [host]; [-1] at the
    host's own node (deliver locally) and for unreachable pairs. *)
val next_hop : t -> node:int -> host:int -> int

(** Hop distance from [node] to [host]; [-1] when unreachable. *)
val hops : t -> node:int -> host:int -> int

(** Node-id path from one host to another by following the table.
    @raise Invalid_argument if the hosts coincide.
    @raise Failure on an unreachable pair or a routing loop. *)
val route : Graph.t -> t -> src_host:int -> dst_host:int -> int list
