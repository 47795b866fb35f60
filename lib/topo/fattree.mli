(** Deterministic k-ary fat-tree builder.

    [build k] (even [k >= 2]) produces k^3/4 hosts, 5k^2/4 switches
    (k^2/2 edge, k^2/2 aggregation, k^2/4 core) and 3k^3/4 undirected
    links; every host pair is at most 6 hops apart. The node numbering
    is fixed — hosts first, then edge, aggregation and core switches —
    so equal [k] always yields the identical graph. *)

val build : int -> Graph.t
(** @raise Invalid_argument unless [k] is even and at least 2. *)

(** Closed-form size helpers (the structural invariants the property
    tests pin down). *)

val n_edges : int -> int
