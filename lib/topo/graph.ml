type kind = Host | Edge_switch | Agg_switch | Core_switch | Router

type t = {
  n : int;
  kinds : kind array;
  link_src : int array;
  link_dst : int array;
  out_off : int array;
  out_links : int array;
  hosts : int array;
  host_of_node : int array;
}

let terminates = function Host | Router -> true | Edge_switch | Agg_switch | Core_switch -> false

let make ~kinds ~edges =
  let n = Array.length kinds in
  if n = 0 then invalid_arg "Graph.make: empty node set";
  (* Expand each undirected edge into its two directed links, then sort
     by (src, dst): directed link ids are a pure function of the edge
     set, never of the order the builder emitted it in. *)
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg (Printf.sprintf "Graph.make: edge (%d,%d) out of range" a b);
      if a = b then invalid_arg (Printf.sprintf "Graph.make: self-loop at %d" a))
    edges;
  let directed =
    List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) edges
    |> List.sort_uniq compare
  in
  let m = List.length directed in
  if m <> 2 * List.length edges then
    invalid_arg "Graph.make: duplicate undirected edge";
  let link_src = Array.make m 0 and link_dst = Array.make m 0 in
  List.iteri
    (fun l (s, d) ->
      link_src.(l) <- s;
      link_dst.(l) <- d)
    directed;
  (* CSR out-adjacency: links are already grouped by src (ascending)
     and sorted by dst within a group. *)
  let out_off = Array.make (n + 1) 0 in
  Array.iter (fun s -> out_off.(s + 1) <- out_off.(s + 1) + 1) link_src;
  for v = 1 to n do
    out_off.(v) <- out_off.(v) + out_off.(v - 1)
  done;
  let out_links = Array.init m (fun l -> l) in
  let host_of_node = Array.make n (-1) in
  let hosts = ref [] in
  for v = n - 1 downto 0 do
    if terminates kinds.(v) then hosts := v :: !hosts
  done;
  let hosts = Array.of_list !hosts in
  Array.iteri (fun h v -> host_of_node.(v) <- h) hosts;
  if Array.length hosts < 2 then
    invalid_arg "Graph.make: need at least two traffic-terminating nodes";
  { n; kinds = Array.copy kinds; link_src; link_dst; out_off; out_links; hosts; host_of_node }

let n_nodes t = t.n

let n_links t = Array.length t.link_src

let n_hosts t = Array.length t.hosts

let kind t v = t.kinds.(v)

let host t h = t.hosts.(h)

let host_of_node t v = t.host_of_node.(v)

let link_src t l = t.link_src.(l)

let link_dst t l = t.link_dst.(l)

let out_degree t v = t.out_off.(v + 1) - t.out_off.(v)

(* Out-links of [v] in ascending destination order. *)
let iter_out t v f =
  for i = t.out_off.(v) to t.out_off.(v + 1) - 1 do
    f t.out_links.(i)
  done

let label t v =
  let prefix =
    match t.kinds.(v) with
    | Host -> "h"
    | Edge_switch -> "e"
    | Agg_switch -> "a"
    | Core_switch -> "c"
    | Router -> "r"
  in
  prefix ^ string_of_int v

(* BFS reachable-node count from [v] — the connectivity witness the
   QCheck properties assert. Flat int-array frontier, no Stdlib.Queue. *)
let reachable t v =
  let seen = Array.make t.n false in
  let queue = Array.make t.n 0 in
  seen.(v) <- true;
  queue.(0) <- v;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    iter_out t u (fun l ->
        let w = t.link_dst.(l) in
        if not seen.(w) then begin
          seen.(w) <- true;
          queue.(!tail) <- w;
          incr tail
        end)
  done;
  !tail
