type 'a t = {
  mutable data : 'a array;
  mutable head : int;  (* index of the oldest element when len > 0 *)
  mutable len : int;
}

let initial_capacity = 16

let create () = { data = [||]; head = 0; len = 0 }

let[@corelite.hot] length t = t.len

let[@corelite.hot] is_empty t = t.len = 0

(* Doubling, rebasing the live window to index 0. The pushed element
   doubles as the [Array.make] fill so no dummy value is ever needed
   for an arbitrary ['a] (same idiom as [Event_queue]); stale slots
   between [len] and [capacity] can pin at most one generation of old
   elements. *)
let grown data ~head ~len x =
  let capacity = Array.length data in
  let capacity' = if capacity = 0 then initial_capacity else 2 * capacity in
  let data' = Array.make capacity' x in
  let tail = capacity - head in
  let first = Stdlib.min len tail in
  Array.blit data head data' 0 first;
  if len > first then Array.blit data 0 data' first (len - first);
  data'

let grow t x =
  t.data <- grown t.data ~head:t.head ~len:t.len x;
  t.head <- 0

let[@corelite.hot] push t x =
  if t.len = Array.length t.data then grow t x;
  let i = t.head + t.len in
  let capacity = Array.length t.data in
  t.data.(if i >= capacity then i - capacity else i) <- x;
  t.len <- t.len + 1

let[@corelite.hot] peek_exn t =
  if t.len = 0 then invalid_arg "Ring.peek_exn: empty";
  t.data.(t.head)

let[@corelite.hot] pop_exn t =
  if t.len = 0 then invalid_arg "Ring.pop_exn: empty";
  let x = t.data.(t.head) in
  let head' = t.head + 1 in
  t.head <- (if head' = Array.length t.data then 0 else head');
  t.len <- t.len - 1;
  if t.len = 0 then t.head <- 0;
  x
