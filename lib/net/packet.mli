(** Network packets.

    All evaluation scenarios use fixed-size 1 KB data packets (paper
    Section 4). A Corelite marker is carried piggybacked on a data packet
    ("logically distinct though it may be physically piggybacked"), so it
    consumes no extra link bandwidth. The [label] field is the CSFQ
    normalized-rate label; it is negative when the packet is unlabelled. *)

(** Corelite marker: identifies the generating edge router and flow, and
    carries the flow's normalized rate [bg/w] for the stateless
    selector. *)
type marker = {
  edge_id : int;  (** node id of the ingress edge router *)
  flow_id : int;
  normalized_rate : float;  (** [bg(f) / w(f)] at injection time *)
}

type t = {
  id : int;  (** per-flow sequence number (TCP uses it as the segment
                 sequence) *)
  flow : int;
  micro : int;  (** end-to-end micro-flow id within an edge-to-edge
                    aggregate; 0 when the flow is not an aggregate *)
  size : int;  (** bytes *)
  mutable dst : int;
      (** destination host index, which nodes forward on. The sending
          ingress stamps it, so a packet one cloud hands on to the next
          is re-stamped there; [-1] until stamped. *)
  created : float;  (** injection time at the ingress edge *)
  mutable marker : marker option;
  mutable label : float;  (** CSFQ label; negative when unlabelled *)
}

val default_size : int
(** 1000 bytes, the paper's fixed packet size. *)

val make :
  id:int ->
  flow:int ->
  ?micro:int ->
  ?size:int ->
  ?marker:marker ->
  created:float ->
  unit ->
  t

val has_marker : t -> bool
