type kind =
  | Enqueue
  | Dequeue
  | Drop
  | Marker_attach
  | Marker_seen
  | Feedback_emit
  | Feedback_recv
  | Epoch
  | Selector
  | Rate_update
  | Alpha_update
  | Fault
  | Flow_start
  | Flow_end
  | Flow_expire

let n_kinds = 15

let kind_index = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Drop -> 2
  | Marker_attach -> 3
  | Marker_seen -> 4
  | Feedback_emit -> 5
  | Feedback_recv -> 6
  | Epoch -> 7
  | Selector -> 8
  | Rate_update -> 9
  | Alpha_update -> 10
  | Fault -> 11
  | Flow_start -> 12
  | Flow_end -> 13
  | Flow_expire -> 14

let kind_of_index = function
  | 0 -> Enqueue
  | 1 -> Dequeue
  | 2 -> Drop
  | 3 -> Marker_attach
  | 4 -> Marker_seen
  | 5 -> Feedback_emit
  | 6 -> Feedback_recv
  | 7 -> Epoch
  | 8 -> Selector
  | 9 -> Rate_update
  | 10 -> Alpha_update
  | 11 -> Fault
  | 12 -> Flow_start
  | 13 -> Flow_end
  | 14 -> Flow_expire
  | i -> invalid_arg (Printf.sprintf "Trace.kind_of_index: %d" i)

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Drop -> "drop"
  | Marker_attach -> "marker_attach"
  | Marker_seen -> "marker_seen"
  | Feedback_emit -> "feedback_emit"
  | Feedback_recv -> "feedback_recv"
  | Epoch -> "epoch"
  | Selector -> "selector"
  | Rate_update -> "rate_update"
  | Alpha_update -> "alpha_update"
  | Fault -> "fault"
  | Flow_start -> "flow_start"
  | Flow_end -> "flow_end"
  | Flow_expire -> "flow_expire"

(* The twelve kinds that predate dynamic flow lifecycle. [digest]
   prints these unconditionally (historic golden format) and the
   lifecycle kinds only when they actually fired, so static-workload
   digests are byte-identical to those produced before churn existed. *)
let legacy_kinds =
  [
    Enqueue;
    Dequeue;
    Drop;
    Marker_attach;
    Marker_seen;
    Feedback_emit;
    Feedback_recv;
    Epoch;
    Selector;
    Rate_update;
    Alpha_update;
    Fault;
  ]

let lifecycle_kinds = [ Flow_start; Flow_end; Flow_expire ]

let all_kinds = legacy_kinds @ lifecycle_kinds

let control_kinds =
  [
    Drop;
    Feedback_emit;
    Feedback_recv;
    Epoch;
    Selector;
    Rate_update;
    Alpha_update;
    Fault;
    Flow_start;
    Flow_end;
    Flow_expire;
  ]

type spec = { capacity : int; kinds : kind list }

let spec ?(capacity = 1 lsl 16) ?(kinds = all_kinds) () =
  if capacity <= 0 then invalid_arg "Trace.spec: capacity must be positive";
  { capacity; kinds }

(* Struct-of-arrays ring: one flat array per event field, so recording
   an event is six unboxed stores plus two counter bumps — no record or
   closure is ever allocated on the recording path, and the float
   arrays are unboxed float storage. The [a]/[b]/[x]/[y] payload slots
   are generic; each kind documents its own field meaning (see the
   interface). When the tracer is disabled the arrays are empty and
   [want] answers [false] from two loads, so instrumented call sites
   guarded by [want] cost a couple of reads and a branch. *)
type t = {
  mutable on : bool;
  mutable mask : int;
  mutable times : float array;
  mutable ks : int array;
  mutable aa : int array;
  mutable bb : int array;
  mutable xx : float array;
  mutable yy : float array;
  mutable next : int;
  mutable recorded : int;
  counts : int array;
}

let create () =
  {
    on = false;
    mask = 0;
    times = [||];
    ks = [||];
    aa = [||];
    bb = [||];
    xx = [||];
    yy = [||];
    next = 0;
    recorded = 0;
    counts = Array.make n_kinds 0;
  }

let enabled t = t.on

let mask_of_kinds kinds =
  List.fold_left (fun m k -> m lor (1 lsl kind_index k)) 0 kinds

let enable ?(capacity = 1 lsl 16) ?(kinds = all_kinds) t =
  if capacity <= 0 then invalid_arg "Trace.enable: capacity must be positive";
  t.on <- true;
  t.mask <- mask_of_kinds kinds;
  t.times <- Array.make capacity 0.;
  t.ks <- Array.make capacity 0;
  t.aa <- Array.make capacity 0;
  t.bb <- Array.make capacity 0;
  t.xx <- Array.make capacity 0.;
  t.yy <- Array.make capacity 0.;
  t.next <- 0;
  t.recorded <- 0;
  Array.fill t.counts 0 n_kinds 0

let apply t s = enable ~capacity:s.capacity ~kinds:s.kinds t

let[@inline] want t kind = t.on && t.mask land (1 lsl kind_index kind) <> 0

let record t ~time kind ~a ~b ~x ~y =
  if want t kind then begin
    let i = kind_index kind in
    t.counts.(i) <- t.counts.(i) + 1;
    t.recorded <- t.recorded + 1;
    let cap = Array.length t.times in
    if cap > 0 then begin
      let n = t.next in
      t.times.(n) <- time;
      t.ks.(n) <- i;
      t.aa.(n) <- a;
      t.bb.(n) <- b;
      t.xx.(n) <- x;
      t.yy.(n) <- y;
      t.next <- if n + 1 = cap then 0 else n + 1
    end
  end

let recorded t = t.recorded

let count t kind = t.counts.(kind_index kind)

let length t = min t.recorded (Array.length t.times)

let dropped_events t = t.recorded - length t

type event = { time : float; kind : kind; a : int; b : int; x : float; y : float }

let get t i =
  let len = length t in
  if i < 0 || i >= len then invalid_arg "Trace.get: index out of bounds";
  let cap = Array.length t.times in
  (* Oldest retained event sits [len] slots behind the write cursor. *)
  let j = (t.next - len + i + cap) mod cap in
  {
    time = t.times.(j);
    kind = kind_of_index t.ks.(j);
    a = t.aa.(j);
    b = t.bb.(j);
    x = t.xx.(j);
    y = t.yy.(j);
  }

let iter t f =
  for i = 0 to length t - 1 do
    f (get t i)
  done

(* Fixed-format float printing keeps exports byte-deterministic across
   runs and domains: the same double always prints the same bytes. *)
let pp_float b v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" v)
  else Buffer.add_string b (Printf.sprintf "%.9g" v)

let to_jsonl t =
  let b = Buffer.create 4096 in
  iter t (fun e ->
      Buffer.add_string b "{\"t\":";
      pp_float b e.time;
      Buffer.add_string b ",\"kind\":\"";
      Buffer.add_string b (kind_name e.kind);
      Buffer.add_string b "\",\"a\":";
      Buffer.add_string b (string_of_int e.a);
      Buffer.add_string b ",\"b\":";
      Buffer.add_string b (string_of_int e.b);
      Buffer.add_string b ",\"x\":";
      pp_float b e.x;
      Buffer.add_string b ",\"y\":";
      pp_float b e.y;
      Buffer.add_string b "}\n");
  Buffer.contents b

let to_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "time,kind,a,b,x,y\n";
  iter t (fun e ->
      pp_float b e.time;
      Buffer.add_char b ',';
      Buffer.add_string b (kind_name e.kind);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.a);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.b);
      Buffer.add_char b ',';
      pp_float b e.x;
      Buffer.add_char b ',';
      pp_float b e.y;
      Buffer.add_char b '\n');
  Buffer.contents b

let digest t =
  let b = Buffer.create 256 in
  List.iter
    (fun k ->
      Buffer.add_string b
        (Printf.sprintf "%-14s %d\n" (kind_name k) (count t k)))
    legacy_kinds;
  List.iter
    (fun k ->
      let n = count t k in
      if n > 0 then
        Buffer.add_string b (Printf.sprintf "%-14s %d\n" (kind_name k) n))
    lifecycle_kinds;
  Buffer.add_string b (Printf.sprintf "recorded       %d\n" t.recorded);
  Buffer.add_string b (Printf.sprintf "retained       %d\n" (length t));
  Buffer.add_string b
    (Printf.sprintf "md5            %s\n" (Digest.to_hex (Digest.string (to_jsonl t))));
  Buffer.contents b
