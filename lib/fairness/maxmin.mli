(** Weighted max-min fair allocation (water-filling).

    Reference solver for the service model of the paper (Section 2.1):
    an allocation vector [b] is weighted max-min fair iff increasing any
    [b(i)] forces decreasing some [b(j)] with
    [b(j)/w(j) <= b(i)/w(i)]. Used to compute the "expected rates" the
    evaluation compares simulation output against. *)

(** One flow's demand. Built only by {!demand}, which validates it. *)
type demand = private {
  flow : int;
  weight : float;
  links : int list;  (** ids of the links the flow traverses *)
  floor : float;  (** contracted minimum rate; [0.] when none *)
}

(** @raise Invalid_argument if [weight] is not positive and finite,
    [floor] is negative or not finite, [links] is empty, or [links]
    names a link twice. *)
val demand : ?floor:float -> flow:int -> weight:float -> links:int list -> unit -> demand

(** [solve ~capacities ~demands] returns the weighted max-min rate of
    every demand, in the same order as [demands]. [capacities] maps link
    id to capacity (any rate unit; output is in the same unit).

    Floors implement the minimum-rate-contract extension: each flow is
    first granted its floor, and the remaining capacity is shared
    weighted max-min. Floors that oversubscribe a link raise
    [Invalid_argument] naming the first such link in [capacities]
    order (admission control must reject such contracts).

    Algorithm: progressive filling over flat arrays. Link ids map to
    dense slots once; flow-to-link and link-to-flow CSR arrays hold the
    paths. Each link keeps its residual capacity and active-flow count,
    and a binary min-heap holds link levels
    [max 0 residual / active weight]. The smallest level is the next
    share; every link within [1e-9] of it saturates, and the flows
    crossing it freeze at [floor + weight * share]. A freeze only raises
    the levels of the other links on the frozen flow's path, so their
    heap entries are marked stale (an int stamp) and refreshed when they
    reach the top. Cost: O(F·P + L) to build the arrays for F flows
    crossing P links on average out of L; then each level sorts its k
    frozen flows (O(k log k)) and each link refresh costs O(log L) plus
    the link's flow count. About 10 ms at 10^4 flows, 0.15 s at 10^5
    and 4 s at 10^6 (fat-tree k=8 and k=16, 2-vCPU host).

    Bit identity: the rates equal, bit for bit, those of a solver that
    rescans every link at every level. Each level's frozen flows are
    charged in demand order, a refreshed link's weight is re-summed over
    its active flows in demand order (never decremented), and the level
    is the smallest refreshed key, because rounding can leave a
    refreshed key an ulp below its stale one. Stale entries up to a
    relative [1e-9] past the saturation threshold are refreshed before a
    level is fixed, which absorbs that rounding.

    @raise Invalid_argument on unknown link ids, a link id listed twice
    in [capacities], non-positive or NaN capacities, a flow id listed
    twice in [demands], or oversubscribed floors. *)
val solve : capacities:(int * float) list -> demands:demand list -> (int * float) list

(** Per-unit-weight share of the single bottleneck [capacity] split
    among [weights] — the paper's hand-calculation helper
    (e.g. 500 pkt/s over total weight 15 = 33.33). *)
val single_link_share : capacity:float -> weights:float list -> float
