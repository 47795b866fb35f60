(** Marker-cache feedback selection (paper Section 2).

    The cache is a circular queue holding the most recent markers that
    traversed the link. Because edges inject markers at the flow's
    normalized rate, a flow's share of cache entries is proportional to
    [bg/w], so drawing uniformly at random yields weighted fair
    feedback without inspecting marker contents. *)

type t

val create : capacity:int -> rng:Sim.Rng.t -> t

(** Record the marker of a packet passing through the link
    (overwrites the oldest entry when full). The marker is copied out,
    so the cache never references the packet, which must carry one
    ({!Net.Packet.has_marker}). *)
val observe : t -> Net.Packet.t -> unit

(** [select t ~fn] draws markers for one congested epoch: [floor fn]
    draws plus one more with probability [frac fn], each uniform over
    the cache (with replacement). Returns [[]] when the cache is
    empty. *)
val select : t -> fn:float -> Net.Packet.marker list

(** [select_iter t ~fn f] is [select] without building the list: [f]
    receives each drawn marker in draw order and the number of draws is
    returned (at most [floor fn + 1], [0] when the cache is empty) —
    the feedback path uses this to emit markers with no list churn.
    Each drawn marker is a fresh record.
    The RNG stream consumed is identical to {!select}'s. *)
val select_iter : t -> fn:float -> (Net.Packet.marker -> unit) -> int

(** Markers currently cached. *)
val occupancy : t -> int

(** Router-reset support: wipe the cache. With an empty cache every
    subsequent selection returns no markers (and consumes no RNG
    draws), so a freshly reset core cannot emit a feedback burst from
    stale entries. *)
val clear : t -> unit
