(* The cache is three flat arrays rather than a [marker option array]:
   recording a marker that passes the link writes three slots and
   allocates nothing; a record is built only for a drawn marker. *)
type t = {
  rng : Sim.Rng.t;
  edges : int array;
  flows : int array;
  rates : float array;
  mutable next : int;  (* circular write cursor *)
  mutable filled : int;
}

let create ~capacity ~rng =
  if capacity <= 0 then invalid_arg "Cache_selector.create: capacity must be positive";
  {
    rng;
    edges = Array.make capacity 0;
    flows = Array.make capacity 0;
    rates = Array.make capacity 0.;
    next = 0;
    filled = 0;
  }

let[@corelite.hot] observe t pkt =
  t.edges.(t.next) <- pkt.Net.Packet.marker_edge;
  t.flows.(t.next) <- pkt.Net.Packet.marker_flow;
  t.rates.(t.next) <- pkt.Net.Packet.floats.rate;
  t.next <- (t.next + 1) mod Array.length t.edges;
  if t.filled < Array.length t.edges then t.filled <- t.filled + 1

let occupancy t = t.filled

(* Router-reset support: wipe the cache. With [filled = 0] every
   subsequent [select_iter] returns no markers (and consumes no draws),
   so a freshly reset core cannot emit a feedback burst from stale
   entries; slots at or past [filled] are never read. *)
let clear t =
  t.next <- 0;
  t.filled <- 0

(* The RNG draw order — one bernoulli for the fractional part, then
   [count] uniform draws in increasing order — is the published stream
   contract: [select] consumed it through [List.init] (which evaluates
   left to right), so [select_iter] must keep it for the committed
   tables to stay byte-identical. *)
let select_iter t ~fn f =
  if fn < 0. then invalid_arg "Cache_selector.select: negative budget";
  if t.filled = 0 || Sim.Floats.is_zero fn then 0
  else begin
    let whole = int_of_float fn in
    let frac = fn -. float_of_int whole in
    (* lint: fault-ok -- the paper's probabilistic rounding, not loss *)
    let count = whole + (if Sim.Rng.bernoulli t.rng frac then 1 else 0) in
    for _ = 1 to count do
      let i = Sim.Rng.int t.rng t.filled in
      f
        {
          Net.Packet.edge_id = t.edges.(i);
          flow_id = t.flows.(i);
          normalized_rate = t.rates.(i);
        }
    done;
    count
  end

let select t ~fn =
  let acc = ref [] in
  let (_ : int) = select_iter t ~fn (fun marker -> acc := marker :: !acc) in
  List.rev !acc
