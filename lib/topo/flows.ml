(* Deterministic flow population: (src, dst, weight) triples sampled
   from the (seed, label) scenario stream. Flow [i] (0-based here; the
   simulation uses [i + 1] as the Net flow id) is fully determined by
   the stream position, so regenerating with equal parameters is
   byte-identical — the property the determinism tests pin down. *)

type t = { src : int array; dst : int array; weight : float array }

let count t = Array.length t.src

let generate ~seed ~label ~graph ~n ?(max_weight = 4) () =
  if n < 1 then invalid_arg "Flows.generate: need at least one flow";
  if max_weight < 1 then invalid_arg "Flows.generate: max_weight must be >= 1";
  let nh = Graph.n_hosts graph in
  if nh < 2 then invalid_arg "Flows.generate: graph needs at least two hosts";
  let rng = Sim.Rng.scenario ~seed ~id:label in
  let src = Array.make n 0 and dst = Array.make n 0 in
  let weight = Array.make n 1. in
  for i = 0 to n - 1 do
    let s = Sim.Rng.int rng nh in
    let d =
      let rec draw () =
        let candidate = Sim.Rng.int rng nh in
        if candidate = s then draw () else candidate
      in
      draw ()
    in
    src.(i) <- s;
    dst.(i) <- d;
    weight.(i) <- float_of_int (1 + Sim.Rng.int rng max_weight)
  done;
  { src; dst; weight }

let equal a b =
  count a = count b
  && a.src = b.src && a.dst = b.dst
  (* Bit-exact regeneration check, not a tolerance comparison: the
     generators promise byte-identical replay. *)
  && Array.for_all2 Float.equal a.weight b.weight
