type kind = Edge | Core

type t = {
  id : int;
  name : string;
  kind : kind;
  routes : (int, Link.t) Hashtbl.t;
  sinks : (int, Packet.t -> unit) Hashtbl.t;
  mutable fib : Link.t option array;
  mutable host : int;
  mutable host_sink : Packet.t -> unit;
}

let no_host_sink (pkt : Packet.t) =
  failwith
    (Printf.sprintf "Node: no host sink installed (flow %d, dst %d)"
       pkt.Packet.flow pkt.Packet.dst)

let create ~id ~name ~kind =
  {
    id;
    name;
    kind;
    routes = Hashtbl.create 16;
    sinks = Hashtbl.create 16;
    fib = [||];
    host = -1;
    host_sink = no_host_sink;
  }

let set_route t ~flow link = Hashtbl.replace t.routes flow link

let set_sink t ~flow consume = Hashtbl.replace t.sinks flow consume

let set_fib t ~host ~fib ~host_sink =
  t.host <- host;
  t.fib <- fib;
  match host_sink with Some consume -> t.host_sink <- consume | None -> ()

(* Two forwarding planes share one function. Generated (scale)
   topologies stamp a destination host index into every packet and
   forward through the flat per-destination [fib] — no per-flow state
   on the path. Hand-built figure topologies leave [dst] at -1 and keep
   the original per-flow route/sink tables, so their behavior (and the
   committed goldens) is untouched. Exception-style lookups on the
   legacy path: [Hashtbl.find_opt] would allocate a [Some] per hop. *)
let[@corelite.hot] receive t pkt =
  let dst = pkt.Packet.dst in
  if dst >= 0 then
    if dst = t.host then t.host_sink pkt
    else begin
      (* Bounds-checked: a hand-built node's FIB is empty, and a
         stamped packet reaching it must fail with this message, not a
         bare index error. *)
      match if dst < Array.length t.fib then t.fib.(dst) else None with
      | Some link -> Link.send link pkt
      | None ->
        failwith
          (Printf.sprintf "Node %s: no FIB entry for host %d" t.name dst)
    end
  else
    let flow = pkt.Packet.flow in
    match Hashtbl.find t.routes flow with
    | link -> Link.send link pkt
    | exception Not_found -> (
      match Hashtbl.find t.sinks flow with
      | consume -> consume pkt
      | exception Not_found ->
        failwith
          (Printf.sprintf "Node %s: no route or sink for flow %d" t.name flow))

let is_edge t = t.kind = Edge
