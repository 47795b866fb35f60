(* Host-speed probes and the time scale they define.

   The benchmark shares a host whose speed drifts by tens of percent
   over seconds to minutes: a repetition that takes 2.75 s in one
   stretch takes 3.3 s in the next, in CPU time as much as in wall
   time, so medians over one run cannot remove it. A probe is a fixed
   piece of work that uses none of the simulator's code; timed between
   the steps of a measured repetition (never inside a step), it tells
   how fast the host ran around that step. [seconds] converts a wall
   interval into the seconds the reference host would have taken: each
   stretch between two probes is scaled by [reference] over the mean
   of those two probes' durations, and the probes' own time is left
   out. Without probes (the traced run) it is plain wall time. *)

(* The probe's median duration on the reference host (2 vCPUs of an
   Intel Xeon at 2.0 GHz). Fixed, so that every commit is measured on
   the same scale. *)
let reference = 0.0095

(* Probe at most this often: about 4% of a run goes to probing. *)
let interval = 0.25

(* The probe: four phases of about 2.7 ms each, so that it slows down
   with the host whichever resource a neighbour contends for: a chain
   of dependent floating-point operations (exp, division, square root),
   pop/push pairs on a binary min-heap of unboxed floats (256 KB,
   branchy sift-down), independent pseudo-random increments in a 4 MB
   table, and a walk over the same table whose every next address
   depends on the byte just read (a miss in the core's own caches at a
   time). Of several mixes timed beside the simulator under contention
   for the ALU, the FPU and memory, this one tracked paper-figures,
   fattree-k8-1e4 and asgraph-n512-1e4-csfq-churn best overall. The
   kernel allocates nothing, so it leaves the collector's state as it
   found it. *)
let heap_size = 1 lsl 15

let table_bytes = 1 lsl 22

type kernel = {
  heap : float array;
  table : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  fp : float array;  (** the floating-point chain's state *)
  mutable rng : int;
  mutable at : int;  (** where the walk stands *)
}

let kernel () =
  let table = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout table_bytes in
  Bigarray.Array1.fill table 0;
  {
    heap = Array.init heap_size float_of_int;
    table;
    fp = [| 1.; 1.; 1. |];
    rng = 0x2545F491;
    at = 0;
  }

let next k =
  let r = (k.rng * 1103515245) + 12345 in
  k.rng <- r;
  r

let run_fp k =
  let f = k.fp in
  for i = 1 to 100_000 do
    f.(0) <- exp (-.f.(1) *. 0.001) +. (f.(2) /. (1. +. f.(0)));
    f.(1) <- (f.(0) *. 1.0001) +. float_of_int (i land 7);
    f.(2) <- sqrt (f.(1) +. 1.)
  done

(* Replace the minimum by itself plus a step and sift it down. *)
let run_heap k =
  let heap = k.heap and n = heap_size in
  for _ = 1 to 18_000 do
    let x = heap.(0) +. float_of_int ((next k lsr 8) land 1023) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < x then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- x
  done

let run_scatter k =
  let table = k.table in
  for _ = 1 to 370_000 do
    let j = (next k lsr 4) land (table_bytes - 1) in
    Bigarray.Array1.unsafe_set table j ((Bigarray.Array1.unsafe_get table j + 1) land 255)
  done

let run_walk k =
  let table = k.table in
  for _ = 1 to 75_000 do
    let v = Bigarray.Array1.unsafe_get table k.at in
    Bigarray.Array1.unsafe_set table k.at ((v + 1) land 255);
    k.at <- ((next k lsr 17) + v) land (table_bytes - 1)
  done

let run_kernel k =
  run_fp k;
  run_heap k;
  run_scatter k;
  run_walk k

type t = {
  kernel : kernel option;  (** [None]: no probing, plain wall time *)
  mutable start : float array;
  mutable stop : float array;
  mutable n : int;
}

let create ~probing =
  let kernel =
    if probing then begin
      let k = kernel () in
      run_kernel k;
      Some k
    end
    else None
  in
  { kernel; start = [||]; stop = [||]; n = 0 }

let probe t =
  match t.kernel with
  | None -> ()
  | Some k ->
    let a = Span.now () in
    run_kernel k;
    let b = Span.now () in
    if t.n = Array.length t.start then begin
      let grow xs = Array.append xs (Array.make (max 64 t.n) 0.) in
      t.start <- grow t.start;
      t.stop <- grow t.stop
    end;
    t.start.(t.n) <- a;
    t.stop.(t.n) <- b;
    t.n <- t.n + 1

(* Called between the steps of a repetition. *)
let tick t =
  if Option.is_some t.kernel && (t.n = 0 || Span.now () -. t.stop.(t.n - 1) >= interval) then probe t

let probe_seconds t i = t.stop.(i) -. t.start.(i)

(* Reference-host seconds in the wall interval [a, b]. Stretch [k] lies
   between probe [k - 1] and probe [k]; the first and last stretches
   take the speed of their one neighbouring probe. *)
let seconds t a b =
  if t.n = 0 then b -. a
  else begin
    let total = ref 0. in
    for k = 0 to t.n do
      let lo = if k = 0 then neg_infinity else t.stop.(k - 1) in
      let hi = if k = t.n then infinity else t.start.(k) in
      let overlap = Float.min b hi -. Float.max a lo in
      if overlap > 0. then begin
        let len =
          if k = 0 then probe_seconds t 0
          else if k = t.n then probe_seconds t (k - 1)
          else (probe_seconds t (k - 1) +. probe_seconds t k) /. 2.
        in
        total := !total +. (overlap *. reference /. len)
      end
    done;
    !total
  end

(* Median probe duration over the wall interval [a, b], in seconds. *)
let median_probe t a b =
  let xs = ref [] in
  for i = 0 to t.n - 1 do
    if t.start.(i) >= a && t.stop.(i) <= b then xs := probe_seconds t i :: !xs
  done;
  match List.sort Float.compare !xs with
  | [] -> nan
  | s -> List.nth s (List.length s / 2)
