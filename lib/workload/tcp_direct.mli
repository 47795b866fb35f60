(** Raw TCP flows over the cloud — no edge shaping.

    Each network flow carries one TCP bulk transfer injected straight
    at the ingress node; ACKs return over the reverse-path propagation
    delay. An ingress labelling shim stamps every segment with the
    flow's measured normalized rate, so a weighted-CSFQ core can police
    TCP exactly as it would police labelled UDP. Over plain queue
    disciplines the labels are inert.

    This is the comparison the paper's ongoing-work section gestures
    at: how close does each core discipline bring {e closed-loop} TCP
    traffic to the weighted-fair allocation, without any cooperation
    from the end hosts? *)

type t

(** [build ~network ()] creates one TCP connection
    ({!Net.Tcp.default_params}) per network flow. [attach_csfq]
    (default false) installs weighted-CSFQ logic on the core links,
    drawing from seed 42; otherwise whatever queue discipline the
    network was built with polices the flows. *)
val build :
  ?csfq_params:Csfq.Params.t ->
  ?attach_csfq:bool ->
  network:Network.t ->
  unit ->
  t

val start : t -> unit

val stop : t -> unit

(** In-order segments delivered to a flow's receiver. *)
val goodput : t -> flow:int -> int

(** All flows, ascending id. *)
val goodputs : t -> (int * int) list

(** Weighted Jain index of the goodputs. *)
val jain : t -> float

val total_retransmits : t -> int
