(* In-memory span recorder. Every call the benchmark makes into a layer
   is bracketed by a span (name, start, end, parent), kept in a growable
   array and written out as JSON Lines once the run is over, so the
   recording itself never touches the filesystem while work is timed.

   Wall-clock reads are the point of a benchmark, hence the waiver on
   lint rule L1. *)

let now () = Unix.gettimeofday () (* lint: determinism-ok *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  start : float;
  mutable stop : float;
}

type t = { mutable spans : span array; mutable n : int; mutable open_ : int list }

let create () = { spans = [||]; n = 0; open_ = [] }

let enter t name =
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let s = { id = t.n; parent; name; start = now (); stop = nan } in
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 64 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.open_ <- s.id :: t.open_;
  s

let leave t s =
  s.stop <- now ();
  match t.open_ with
  | top :: rest when top = s.id -> t.open_ <- rest
  | _ -> invalid_arg ("Span.leave: " ^ s.name ^ " is not the innermost open span")

(* [with_ t name f] runs [f] inside a span named [name]. *)
let with_ t name f =
  let s = enter t name in
  Fun.protect ~finally:(fun () -> leave t s) f

let duration s = s.stop -. s.start

let fold t f acc =
  let acc = ref acc in
  for i = 0 to t.n - 1 do
    acc := f !acc t.spans.(i)
  done;
  !acc

(* Total duration of the spans called [name] that descend from span
   [under] (any depth). [clock start stop] gives a span's seconds; the
   default is its wall-clock duration. *)
let seconds ?(clock = fun a b -> b -. a) ~under t name =
  let rec descends id = id >= 0 && (id = under || descends t.spans.(id).parent) in
  fold t
    (fun sum s -> if s.name = name && descends s.parent then sum +. clock s.start s.stop else sum)
    0.

(* Smallest share of a [name] span's duration covered by its direct
   children, over every such span lasting more than [longer_than]
   seconds; 1 when there is none. *)
let min_child_coverage t name ~longer_than =
  let covered = Array.make t.n 0. in
  fold t
    (fun () s -> if s.parent >= 0 then covered.(s.parent) <- covered.(s.parent) +. duration s)
    ();
  fold t
    (fun acc s ->
      if s.name = name && duration s > longer_than then Float.min acc (covered.(s.id) /. duration s)
      else acc)
    1.

let to_jsonl t =
  let b = Buffer.create (128 * (t.n + 1)) in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.bprintf b
      "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f,\"dur_s\":%.9f}\n"
      s.id s.parent s.name s.start s.stop (duration s)
  done;
  Buffer.contents b
