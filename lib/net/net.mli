(** Packet-level network substrate — the ns-2 replacement.

    Store-and-forward links with transmission and propagation delay,
    pluggable queue disciplines, destination forwarding over
    hand-built and generated topologies, and the traffic endpoints the
    evaluation needs: rate-adaptive paced sources (the edge agents'
    engine), on/off burst drivers and a Reno-style TCP (unresponsive
    sources live in {!Workload.Adversary}).

    Scheme logic (Corelite, CSFQ) stays out of this layer: links expose
    an admission hook ({!Link.t.on_arrival}), their own queue average
    ({!Link.queue_average}) and [on_drop] for loss notification, and
    the schemes plug in from above. *)

(** Packets: fixed-size data units carrying optional Corelite markers,
    CSFQ labels and micro-flow ids. *)
module Packet = Packet

(** Queue disciplines: DropTail, RED, FRED, classful multi-queue,
    per-flow DRR. *)
module Qdisc = Qdisc

(** Unidirectional store-and-forward links with a scheme admission hook. *)
module Link = Link

(** Deterministic fault injection: interprets {!Sim.Faultplan} plans
    (loss, marker corruption, flaps) on a wired topology. *)
module Fault = Fault

(** Forwarding nodes (edge and core routers). *)
module Node = Node

(** Topology container and per-flow path installation. *)
module Topology = Topology

(** Edge-to-edge flows (id, weight, node path). *)
module Flow = Flow

(** The shared rate-adaptive paced source (slow-start + LIMD). *)
module Source = Source

(** Exponential/Pareto on-off drivers for bursty traffic. *)
module Onoff = Onoff

(** Reno-style TCP sender and receiver. *)
module Tcp = Tcp

(** Per-link observation: queue/throughput/drop series. *)
module Probe = Probe

(** Dense flow-id-indexed tables: the flat-array replacement for
    per-flow Hashtbls on deployment control paths. *)
module Flowtable = Flowtable

(** A deployment's per-flow edge agents and their lifecycle (arrival,
    end, soft-state expiry), shared by every scheme. *)
module Agents = Agents
