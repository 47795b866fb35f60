(* k-ary fat-tree (Al-Fahad et al. / the classic Clos instance the
   SNIPPETS exemplars build): k pods, each with k/2 edge and k/2
   aggregation switches; k/2 hosts per edge switch; (k/2)^2 core
   switches in k/2 groups of k/2. Totals: k^3/4 hosts, 5k^2/4 switches,
   3k^3/4 undirected links; any host pair is at most 6 hops apart. *)

let n_hosts k = k * k * k / 4

let n_edges k = 3 * k * k * k / 4

let build k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Fattree.build: k must be even and >= 2";
  let half = k / 2 in
  let hosts = n_hosts k in
  let edge_base = hosts in
  let agg_base = edge_base + (k * half) in
  let core_base = agg_base + (k * half) in
  let n = core_base + (half * half) in
  let kinds = Array.make n Graph.Host in
  Array.fill kinds edge_base (k * half) Graph.Edge_switch;
  Array.fill kinds agg_base (k * half) Graph.Agg_switch;
  Array.fill kinds core_base (half * half) Graph.Core_switch;
  let edges = ref [] in
  for p = 0 to k - 1 do
    for s = 0 to half - 1 do
      let esw = edge_base + (p * half) + s in
      let asw = agg_base + (p * half) + s in
      (* k/2 hosts under each edge switch. *)
      for i = 0 to half - 1 do
        edges := (esw, (p * half * half) + (s * half) + i) :: !edges
      done;
      (* Full bipartite edge-agg wiring inside the pod. *)
      for a = 0 to half - 1 do
        edges := (esw, agg_base + (p * half) + a) :: !edges
      done;
      (* Aggregation switch s of every pod connects to core group s. *)
      for j = 0 to half - 1 do
        edges := (asw, core_base + (s * half) + j) :: !edges
      done
    done
  done;
  Graph.make ~kinds ~edges:!edges
