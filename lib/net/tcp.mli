(** A Reno-style TCP bulk sender and receiver over the simulator.

    The paper lists "agents like TCP which involve interaction between
    the edge router and the end host" as ongoing work; this module
    provides that substrate so TCP micro-flows can be carried inside a
    shaped edge-to-edge aggregate (see {!Corelite.Aggregate}).

    The sender implements the classic loop: slow-start to [ssthresh],
    congestion avoidance (+1 MSS per RTT), fast retransmit on three
    duplicate ACKs with window halving, and a coarse exponential-backoff
    retransmission timeout that resets the window to one segment. SRTT
    and RTTVAR follow Jacobson/Karels with Karn's rule (no samples from
    retransmitted segments).

    Segments are {!Packet.t} values whose [id] is the segment sequence
    number (in packets, starting at 1). The receiver returns cumulative
    ACKs through a caller-supplied channel (in the evaluation: the
    reverse-path propagation delay). *)

type params = {
  initial_cwnd : float;  (** packets *)
  initial_ssthresh : float;  (** packets *)
  max_cwnd : float;  (** cap on the window, packets *)
  rto_min : float;  (** seconds *)
  rto_max : float;  (** seconds *)
  dupack_threshold : int;  (** 3 in Reno *)
}

val default_params : params

(** {1 Sender} *)

module Sender : sig
  type t

  (** [create ~engine ~params ~flow ~micro ~transmit ()] builds a
      stopped sender. [transmit] injects a segment into the network
      (e.g. submits it to an aggregate's ingress queue). *)
  val create :
    engine:Sim.Engine.t ->
    ?params:params ->
    flow:int ->
    micro:int ->
    transmit:(Packet.t -> unit) ->
    unit ->
    t

  (** Start sending an unbounded bulk transfer. *)
  val start : t -> unit

  val stop : t -> unit

  (** Deliver a cumulative ACK (highest in-order sequence received). *)
  val ack : t -> int -> unit

  val cwnd : t -> float

  val ssthresh : t -> float

  val retransmits : t -> int

  val timeouts : t -> int

  (** Highest cumulatively acknowledged sequence. *)
  val acked : t -> int

  (** Smoothed RTT estimate, seconds ([0.] before the first sample). *)
  val srtt : t -> float
end

(** {1 Receiver} *)

module Receiver : sig
  type t

  (** [create ~send_ack] — [send_ack] carries the cumulative ACK back
      to the sender (the caller adds the return-path delay). *)
  val create : send_ack:(int -> unit) -> t

  (** Process an arriving data segment; emits one ACK per segment
      (duplicate ACKs for out-of-order arrivals). *)
  val receive : t -> Packet.t -> unit

  (** Segments delivered in order so far (the goodput counter). *)
  val delivered : t -> int
end
