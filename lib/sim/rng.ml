(* The 64-bit state sits in an 8-byte [Bytes.t], read and written
   through the compiler's unboxed primitives: an [int64] record field
   would box every new state (3 words) and [caml_modify] it into an
   old record, and [Bytes.get_int64_le] is not inlined under [-opaque],
   so its result would be boxed too. Native byte order: the bytes never
   leave the process. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix64 state

let split t = of_state (bits64 t)

let stream t index =
  (* Pure function of (state, index): unlike [split] it neither draws
     from nor advances [t], so the derived stream is independent of how
     many draws other substreams made — the property parallel scenario
     execution relies on. [index + 1] keeps substream 0 distinct from
     the parent's own continuation. *)
  let jump = Int64.mul golden_gamma (Int64.of_int (index + 1)) in
  of_state (mix64 (Int64.add (get64 t 0) jump))

(* FNV-1a, the stable 64-bit string hash behind scenario-id streams.
   Hashtbl.hash is deterministic only within one compiler version, so
   spell the hash out. *)
let fnv1a label =
  let offset_basis = 0xCBF29CE484222325L and prime = 0x00000100000001B3L in
  let h = ref offset_basis in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    label;
  Int64.to_int !h land max_int

let scenario ~seed ~id = stream (create seed) (fnv1a id)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.sub bound64 1L) in
  let raw = ref (Int64.shift_right_logical (bits64 t) 1) in
  while Int64.sub !raw (Int64.rem !raw bound64) > limit do
    raw := Int64.shift_right_logical (bits64 t) 1
  done;
  Int64.to_int (Int64.rem !raw bound64)

let[@inline] float t bound =
  (* 53 uniform bits mapped to [0, 1). *)
  let raw = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float raw *. 0x1p-53 in
  unit *. bound

let bernoulli t p = if p >= 1. then true else if p <= 0. then false else float t 1. < p

let exponential t ~mean =
  let u = 1. -. float t 1. in
  -.mean *. log u

let pareto t ~shape ~mean =
  if shape <= 1. then invalid_arg "Rng.pareto: shape must exceed 1";
  let scale = mean *. (shape -. 1.) /. shape in
  let u = 1. -. float t 1. in
  scale /. (u ** (1. /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
