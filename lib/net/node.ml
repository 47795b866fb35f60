type kind = Edge | Core

type t = {
  id : int;
  name : string;
  kind : kind;
  mutable ports : Link.t array;
  mutable fib : Bytes.t;
  mutable fib_span : int;
  mutable host : int;
  mutable host_sink : Packet.t -> unit;
}

(* A FIB row holds one 2-byte port index per destination host, in
   native byte order (the row never leaves the process): a quarter of
   a [Link.t option] slot, with no [Some] box to load on a hit. Reads
   are bounds-checked against [fib_span], which sits in the node
   record: [Bytes.length] would load the row's header and last byte,
   two more cache lines per hop. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"

let no_port = 0xFFFF

let max_ports = no_port

let no_host_sink (pkt : Packet.t) =
  failwith
    (Printf.sprintf "Node: no host sink installed (flow %d, dst %d)"
       pkt.Packet.flow pkt.Packet.dst)

let create ~id ~name ~kind =
  {
    id;
    name;
    kind;
    ports = [||];
    fib = Bytes.empty;
    fib_span = 0;
    host = -1;
    host_sink = no_host_sink;
  }

let set_host t ~host sink =
  t.host <- host;
  t.host_sink <- sink

let fib_span t = t.fib_span

let check_ports t n =
  if n > max_ports then
    invalid_arg
      (Printf.sprintf "Node %s: %d out-links, more than the %d a FIB port index can name"
         t.name n max_ports)

let route t ~host =
  if host >= 0 && host < t.fib_span then
    let p = get16 t.fib (2 * host) in
    if p = no_port then None else Some t.ports.(p)
  else None

let set_table t ~ports ~span next =
  check_ports t (Array.length ports);
  let fib = Bytes.create (2 * span) in
  for h = 0 to span - 1 do
    let p = next h in
    if p >= Array.length ports then
      invalid_arg (Printf.sprintf "Node %s: host %d routed to missing port %d" t.name h p);
    set16 fib (2 * h) (if p < 0 then no_port else p)
  done;
  t.ports <- ports;
  t.fib <- fib;
  t.fib_span <- span

let set_route t ~span ~host link =
  if host < 0 || host >= span then
    invalid_arg (Printf.sprintf "Node %s: host %d outside a %d-host table" t.name host span);
  if t.fib_span < span then begin
    let fib = Bytes.make (2 * span) '\xFF' in
    Bytes.blit t.fib 0 fib 0 (2 * t.fib_span);
    t.fib <- fib;
    t.fib_span <- span
  end;
  let n = Array.length t.ports in
  let rec find p = if p = n then -1 else if t.ports.(p) == link then p else find (p + 1) in
  let p =
    match find 0 with
    | -1 ->
      check_ports t (n + 1);
      t.ports <- Array.append t.ports [| link |];
      n
    | p -> p
  in
  set16 t.fib (2 * host) p

(* Bounds-checked at both ends: an unstamped packet ([dst = -1]) or a
   host past the end of a short table fails with this message, not a
   bare index error. *)
let[@corelite.hot] receive t pkt =
  let dst = pkt.Packet.dst in
  if dst >= 0 && dst = t.host then t.host_sink pkt
  else
    let p = if dst >= 0 && dst < t.fib_span then get16 t.fib (2 * dst) else no_port in
    if p = no_port then
      failwith (Printf.sprintf "Node %s: no FIB entry for host %d" t.name dst)
    else Link.send t.ports.(p) pkt

let is_edge t = t.kind = Edge
