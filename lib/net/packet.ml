type marker = { edge_id : int; flow_id : int; normalized_rate : float }

type floats = {
  mutable created : float;
  mutable label : float;
  mutable rate : float;
}

(* What a hop reads comes first: [dst] at every node, [size] at every
   enqueue and transmission, [marker_edge] and [floats] at a core. *)
type t = {
  mutable dst : int;
  mutable size : int;
  mutable marker_edge : int;
  floats : floats;
  mutable marker_flow : int;
  mutable id : int;
  mutable flow : int;
  mutable micro : int;
  owner : pool option;
}

(* [free] is a stack of released packets, [free.(0 .. n_free - 1)];
   [handle] is [Some] of the pool itself, built once so that the
   packets a pool makes share one owner pointer. *)
and pool = {
  mutable free : t array;
  mutable n_free : int;
  mutable outstanding : int;
  handle : pool option;
}

let default_size = 1000

let released = -2

let has_marker t = t.marker_edge >= 0

let set_marker t m =
  if m.edge_id < 0 then invalid_arg "Packet.set_marker: negative edge id";
  t.marker_edge <- m.edge_id;
  t.marker_flow <- m.flow_id;
  t.floats.rate <- m.normalized_rate

let clear_marker t = t.marker_edge <- -1

let marker t =
  if has_marker t then
    Some
      {
        edge_id = t.marker_edge;
        flow_id = t.marker_flow;
        normalized_rate = t.floats.rate;
      }
  else None

let make ~id ~flow ?(micro = 0) ?(size = default_size) ?marker ~created () =
  let t =
    {
      id;
      flow;
      micro;
      size;
      dst = -1;
      marker_edge = -1;
      marker_flow = -1;
      floats = { created; label = -1.; rate = 0. };
      owner = None;
    }
  in
  (match marker with Some m -> set_marker t m | None -> ());
  t

let create_pool () =
  let rec pool = { free = [||]; n_free = 0; outstanding = 0; handle = Some pool } in
  pool

let outstanding pool = pool.outstanding

let fresh pool ~id ~flow ~created =
  {
    id;
    flow;
    micro = 0;
    size = default_size;
    dst = -1;
    marker_edge = -1;
    marker_flow = -1;
    floats = { created; label = -1.; rate = 0. };
    owner = pool.handle;
  }

let[@corelite.hot] alloc pool ~id ~flow ~created =
  pool.outstanding <- pool.outstanding + 1;
  if pool.n_free = 0 then fresh pool ~id ~flow ~created
  else begin
    let n = pool.n_free - 1 in
    pool.n_free <- n;
    let t = pool.free.(n) in
    t.id <- id;
    t.flow <- flow;
    t.micro <- 0;
    t.size <- default_size;
    t.dst <- -1;
    t.marker_edge <- -1;
    t.marker_flow <- -1;
    t.floats.created <- created;
    t.floats.label <- -1.;
    t.floats.rate <- 0.;
    t
  end

(* Doubling, seeded with the packet being pushed; the pool's free stack
   only grows while more packets are in flight than ever before. *)
let grow pool t =
  let n = Array.length pool.free in
  let free = Array.make (Stdlib.max 64 (2 * n)) t in
  Array.blit pool.free 0 free 0 n;
  pool.free <- free

let[@corelite.hot] release t =
  match t.owner with
  | None -> ()
  | Some pool ->
    if t.dst = released then invalid_arg "Packet.release: packet already released";
    t.dst <- released;
    pool.outstanding <- pool.outstanding - 1;
    if pool.n_free = Array.length pool.free then grow pool t;
    pool.free.(pool.n_free) <- t;
    pool.n_free <- pool.n_free + 1
