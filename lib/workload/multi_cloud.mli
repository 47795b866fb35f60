(** Chaining network clouds (the paper's inter-domain hook).

    Corelite's mechanisms are deliberately edge-to-edge within one
    cloud; the paper leaves "the interactions required between the edge
    routers of different autonomous domains" as future work. This
    module implements the natural composition: a flow crosses cloud A
    and is handed, at A's egress edge, to cloud B's ingress edge, where
    it is re-shaped under B's own Corelite control loop. The hand-off
    buffer is a {!Corelite.Aggregate} with a single micro-flow, so an
    application-limited supply (whatever A delivers) drives B's shaper
    and B's allowed rate never probes beyond the traffic A actually
    forwards.

    End-to-end, each flow receives (asymptotically) the minimum of its
    weighted shares in the two clouds — max-min fairness composes. *)

type t

(** [build ~cloud_a ~cloud_b ()] connects the two clouds: every flow id
    present in both networks is chained A -> B; a flow id present in
    only one cloud becomes an ordinary local flow there. Flows are shaped by a
    plain Corelite edge in A and by a hand-off aggregate in B; both
    clouds run their own core logic and control planes under
    {!Corelite.Params.default}, with epoch offsets drawn from seed 42.
    The inter-cloud buffer holds 64 packets.
    @raise Invalid_argument if the clouds share no flow id or are not
    on the same engine. *)
val build :
  ?backpressure:bool ->
  cloud_a:Network.t ->
  cloud_b:Network.t ->
  unit ->
  t

(** Start every flow in both clouds. *)
val start : t -> unit

val stop : t -> unit

(** Packets delivered end-to-end (out of cloud B) per flow. *)
val delivered : t -> flow:int -> int

(** Packets dropped at a hand-off buffer (cloud B slower than A). *)
val handoff_drops : t -> flow:int -> int

(** The cloud-A edge agent of a flow (rates, counters). *)
val agent_a : t -> flow:int -> Corelite.Edge.t

(** The agent of a single-cloud (local) flow.
    @raise Not_found if the flow is chained or unknown. *)
val local_agent : t -> flow:int -> Corelite.Edge.t
