type counter = { mutable c_value : int }

(* Per-bucket (non-cumulative) counts; [h_counts] has one more slot
   than [h_bounds] for the overflow (+inf) bucket, so the sum of bucket
   counts always equals the observation count — the property the QCheck
   suite pins down. *)
type histogram = {
  h_bounds : float array;
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : float;
}

type instrument =
  | Counter of counter
  | Histogram of histogram
  | Probe of (unit -> float)

type entry = { help : string; inst : instrument }

type t = { mutable auto : bool; tbl : (string, entry) Hashtbl.t }

let create () = { auto = false; tbl = Hashtbl.create 64 }

let auto_probes t = t.auto

let set_auto_probes t auto = t.auto <- auto

let kind_label = function
  | Counter _ -> "counter"
  | Histogram _ -> "histogram"
  | Probe _ -> "probe"

let register t name help inst = Hashtbl.replace t.tbl name { help; inst }

(* Get-or-create: components register instruments at construction time,
   and tests routinely build several same-shaped components on one
   engine, so a same-name same-kind registration returns the existing
   instrument instead of erroring. A same-name different-kind
   registration is a real bug and raises. *)
let counter ?(help = "") t name =
  match Hashtbl.find_opt t.tbl name with
  | Some { inst = Counter c; _ } -> c
  | Some { inst; _ } ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %s already registered as a %s" name
         (kind_label inst))
  | None ->
    let c = { c_value = 0 } in
    register t name help (Counter c);
    c

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let counter_value c = c.c_value

let default_buckets =
  (* lint: domain-ok — read-only default, always Array.copy'd before use *)
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let histogram ?(help = "") ?buckets t name =
  match Hashtbl.find_opt t.tbl name with
  | Some { inst = Histogram h; _ } -> h
  | Some { inst; _ } ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %s already registered as a %s" name
         (kind_label inst))
  | None ->
    let bounds =
      match buckets with None -> Array.copy default_buckets | Some b -> Array.copy b
    in
    let n = Array.length bounds in
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing"
    done;
    let h =
      { h_bounds = bounds; h_counts = Array.make (n + 1) 0; h_count = 0; h_sum = 0. }
    in
    register t name help (Histogram h);
    h

let observe h v =
  let n = Array.length h.h_bounds in
  let i = ref 0 in
  while !i < n && v > h.h_bounds.(!i) do
    i := !i + 1
  done;
  h.h_counts.(!i) <- h.h_counts.(!i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

let histogram_count h = h.h_count

let histogram_sum h = h.h_sum

let bucket_counts h =
  let n = Array.length h.h_bounds in
  List.init (n + 1) (fun i ->
      let bound = if i = n then infinity else h.h_bounds.(i) in
      (bound, h.h_counts.(i)))

let probe ?(help = "") t name f = if t.auto then register t name help (Probe f)

type row = { name : string; kind : string; value : float; help : string }

let pp_bound b = if Float.is_integer b then Printf.sprintf "%.0f" b else Printf.sprintf "%g" b

let rows t =
  (* Sorted by name: Hashtbl iteration order is an implementation
     detail, and exports must be byte-deterministic. *)
  let names =
    List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])
  in
  List.concat_map
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | None -> []
      | Some { help; inst } -> (
        match inst with
        | Counter c -> [ { name; kind = "counter"; value = float_of_int c.c_value; help } ]
        | Probe f -> [ { name; kind = "probe"; value = f (); help } ]
        | Histogram h ->
          { name = name ^ ".count"; kind = "histogram";
            value = float_of_int h.h_count; help }
          :: { name = name ^ ".sum"; kind = "histogram"; value = h.h_sum; help }
          :: List.map
               (fun (bound, c) ->
                 { name = Printf.sprintf "%s.le_%s" name
                     (if Float.is_finite bound then pp_bound bound else "inf");
                   kind = "histogram"; value = float_of_int c; help })
               (bucket_counts h)))
    names
