type kind = Edge | Core

type t = {
  id : int;
  name : string;
  kind : kind;
  mutable fib : Link.t option array;
  mutable host : int;
  mutable host_sink : Packet.t -> unit;
}

let no_host_sink (pkt : Packet.t) =
  failwith
    (Printf.sprintf "Node: no host sink installed (flow %d, dst %d)"
       pkt.Packet.flow pkt.Packet.dst)

let create ~id ~name ~kind =
  { id; name; kind; fib = [||]; host = -1; host_sink = no_host_sink }

(* Bounds-checked at both ends: an unstamped packet ([dst = -1]) or a
   host past the end of a short table fails with this message, not a
   bare index error. *)
let[@corelite.hot] receive t pkt =
  let dst = pkt.Packet.dst in
  if dst >= 0 && dst = t.host then t.host_sink pkt
  else
    match if dst >= 0 && dst < Array.length t.fib then t.fib.(dst) else None with
    | Some link -> Link.send link pkt
    | None -> failwith (Printf.sprintf "Node %s: no FIB entry for host %d" t.name dst)

let is_edge t = t.kind = Edge
