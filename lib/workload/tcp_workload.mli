(** TCP micro-flows inside shaped edge-to-edge aggregates.

    Builds, for every flow of a {!Network.t}, a {!Corelite.Aggregate}
    carrying a configurable number of TCP bulk transfers: senders
    submit segments at the ingress edge; the aggregate shapes them at
    the Corelite allowed rate; receivers at the egress return
    cumulative ACKs over the reverse-path propagation delay. The
    paper's ongoing-work question — how end-host TCP interacts with
    the edge router — becomes measurable: per-aggregate weighted
    fairness and per-micro-flow goodput within each aggregate. *)

type t

(** [build ~network ~micro_flows ()] creates one aggregate per network
    flow, each with a 128-packet edge queue, and [micro_flows flow_id]
    TCP connections ({!Net.Tcp.default_params}) inside each. Corelite
    core logic ({!Corelite.Params.default}, seed 42) is attached to the
    network's core links. *)
val build :
  network:Network.t ->
  micro_flows:(int -> int) ->
  unit ->
  t

(** Start every aggregate and every TCP sender. *)
val start : t -> unit

val stop : t -> unit

(** In-order segments delivered to a micro-flow's receiver. *)
val goodput : t -> flow:int -> micro:int -> int

(** Per-aggregate totals: (flow id, sum of micro-flow goodputs). *)
val aggregate_goodputs : t -> (int * int) list

(** TCP senders' retransmission totals across the whole run. *)
val total_retransmits : t -> int

(** Packets dropped at ingress edge queues (edge policing of TCP
    bursts). *)
val total_edge_drops : t -> int

(** Weighted fairness (Jain index) of the aggregate goodputs measured
    over the whole run. *)
val jain : t -> float
