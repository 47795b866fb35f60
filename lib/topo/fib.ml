(* Shared shortest-path forwarding tables, computed once per topology.

   One BFS per destination host over the (symmetric) directed graph
   yields hop distances from every node; the next hop at [v] toward
   host [h] is one of [v]'s out-neighbours strictly closer to [h].
   Among equal-cost candidates the choice is a deterministic hash of
   (v, h) — ECMP-like spreading without any RNG, so the table is a pure
   function of the graph and regeneration is byte-identical.

   Layout: both tables are host-major flat arrays ([h * n + v]), so a
   destination's slice is contiguous during its BFS and when a builder
   converts it into per-node link arrays. *)

type t = {
  n_nodes : int;
  next : int array;  (* h * n + v -> directed link id, -1 at the host itself *)
  dist : int array;  (* h * n + v -> hops from v to host h *)
}

(* SplitMix-style avalanche on the (node, host) pair; only used to pick
   among equal-cost next hops, so quality requirements are mild. *)
let mix v h =
  let x = (v * 0x9e3779b1) lxor (h * 0x85ebca6b) in
  let x = (x lxor (x lsr 16)) * 0x27d4eb2f in
  (x lxor (x lsr 13)) land max_int

let compute g =
  let n = Graph.n_nodes g and nh = Graph.n_hosts g in
  let next = Array.make (n * nh) (-1) in
  let dist = Array.make (n * nh) max_int in
  let queue = Array.make n 0 in
  for h = 0 to nh - 1 do
    let base = h * n in
    let root = Graph.host g h in
    dist.(base + root) <- 0;
    queue.(0) <- root;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let du = dist.(base + u) in
      Graph.iter_out g u (fun l ->
          let w = Graph.link_dst g l in
          if dist.(base + w) = max_int then begin
            dist.(base + w) <- du + 1;
            queue.(!tail) <- w;
            incr tail
          end)
    done;
    (* Next-hop selection: count the equal-cost candidates, then pick
       the [mix (v, h)]-th one in CSR (ascending link id) order. *)
    for v = 0 to n - 1 do
      let dv = dist.(base + v) in
      if dv > 0 && dv < max_int then begin
        let candidates = ref 0 in
        Graph.iter_out g v (fun l ->
            if dist.(base + Graph.link_dst g l) = dv - 1 then incr candidates);
        let pick = mix v h mod !candidates in
        let seen = ref 0 in
        Graph.iter_out g v (fun l ->
            if dist.(base + Graph.link_dst g l) = dv - 1 then begin
              if !seen = pick then next.(base + v) <- l;
              incr seen
            end)
      end
    done
  done;
  { n_nodes = n; next; dist }

let next_hop t ~node ~host = t.next.((host * t.n_nodes) + node)

let hops t ~node ~host =
  let d = t.dist.((host * t.n_nodes) + node) in
  if d = max_int then -1 else d

(* Node path from one host to another by following [next]; the step
   bound turns a routing loop (impossible for BFS tables, but the
   property tests prove it rather than assume it) into an exception. *)
let route g t ~src_host ~dst_host =
  if src_host = dst_host then invalid_arg "Fib.route: src and dst coincide";
  let dst_node = Graph.host g dst_host in
  let rec walk v steps acc =
    if steps > t.n_nodes then failwith "Fib.route: routing loop"
    else if v = dst_node then List.rev (v :: acc)
    else
      let l = next_hop t ~node:v ~host:dst_host in
      if l < 0 then failwith "Fib.route: unreachable destination"
      else walk (Graph.link_dst g l) (steps + 1) (v :: acc)
  in
  walk (Graph.host g src_host) 0 []
