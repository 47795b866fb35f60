type t = {
  scheme : Runner.scheme;
  cores : int;
  bandwidth : float;
  delay : float;
  queue_capacity : int;
  flows : (int * float * int * int) list;
  floors : (int * float) list;
  schedule : (float * Runner.action) list;
  duration : float;
  seed : int;
}

(* Mutable accumulator while walking the lines. *)
type builder = {
  mutable scheme : Runner.scheme;
  mutable topology : (int * float * float * int) option;  (* cores, bw, delay, queue *)
  mutable flows : (int * float * int * int) list;
  mutable floors : (int * float) list;
  mutable schedule : (float * Runner.action) list;
  mutable duration : float option;
  mutable seed : int;
}

exception Syntax of string

let fail fmt = Printf.ksprintf (fun message -> raise (Syntax message)) fmt

(* [float_of_string] also reads "nan" and "inf", which no field of a
   scenario can take: an infinite duration never returns and a NaN one
   runs nothing. *)
let float_of token label =
  match float_of_string_opt token with
  | Some v when Float.is_finite v -> v
  | Some _ | None -> fail "%s: expected a number, got %S" label token

let int_of token label =
  match int_of_string_opt token with
  | Some v -> v
  | None -> fail "%s: expected an integer, got %S" label token

(* Delays, floors and schedule times (the clock starts at 0). *)
let non_negative label v =
  if v < 0. then fail "%s must be non-negative, got %g" label v;
  v

(* A packet's transmission time, 8,000 bits over the bandwidth, stays
   8 ns or more: above 1 Tbit/s it would sink below the clock's
   resolution over a long run, and a floor paced at such a link's
   capacity would ask for billions of events per simulated second. *)
let max_bandwidth = 1e12

(* Packets per second a link of [bandwidth] bit/s carries. *)
let capacity_pps bandwidth = bandwidth /. float_of_int (8 * Net.Packet.default_size)

(* "key=value" option fields of the topology directive. *)
let topology_options tokens =
  let cores = ref 4
  and bandwidth = ref 4_000_000.
  and delay = ref 0.04
  and queue = ref 40 in
  List.iter
    (fun token ->
      match String.split_on_char '=' token with
      | [ "cores"; v ] -> cores := int_of v "cores"
      | [ "bandwidth"; v ] -> bandwidth := float_of v "bandwidth"
      | [ "delay"; v ] -> delay := non_negative "delay" (float_of v "delay")
      | [ "queue"; v ] -> queue := int_of v "queue"
      | _ -> fail "unknown topology option %S" token)
    tokens;
  if !cores < 2 then fail "cores must be at least 2, got %d" !cores;
  if !bandwidth <= 0. then fail "bandwidth must be positive";
  if !bandwidth > max_bandwidth then
    fail "bandwidth must be at most %g bit/s, got %g" max_bandwidth !bandwidth;
  if !queue < 1 then fail "queue must be positive";
  (!cores, !bandwidth, !delay, !queue)

let directive b tokens =
  match tokens with
  | [] -> ()
  | "topology" :: "chain" :: options -> b.topology <- Some (topology_options options)
  | "topology" :: kind :: _ -> fail "unknown topology %S (expected: chain)" kind
  | [ "scheme"; "corelite" ] -> b.scheme <- Runner.Corelite Corelite.Params.default
  | [ "scheme"; "csfq" ] -> b.scheme <- Runner.Csfq Csfq.Params.default
  | [ "scheme"; "plain" ] -> b.scheme <- Runner.Plain Csfq.Params.default
  | [ "scheme"; other ] -> fail "unknown scheme %S" other
  | [ "seed"; v ] -> b.seed <- int_of v "seed"
  | [ "duration"; v ] -> b.duration <- Some (float_of v "duration")
  | "flow" :: id :: "weight" :: w :: "from" :: entry :: "to" :: exit :: rest ->
    let id = int_of id "flow id" in
    if id < 0 then fail "flow id must be non-negative, got %d" id;
    if List.exists (fun (existing, _, _, _) -> existing = id) b.flows then
      fail "duplicate flow %d" id;
    (match rest with
    | [] -> ()
    | [ "floor"; f ] ->
      b.floors <- (id, non_negative "floor" (float_of f "floor")) :: b.floors
    | _ -> fail "unexpected tokens after flow %d" id);
    b.flows <-
      (id, float_of w "weight", int_of entry "entry core", int_of exit "exit core")
      :: b.flows
  | [ "start"; id; "at"; time ] ->
    let time = non_negative "start time" (float_of time "start time") in
    b.schedule <- (time, Runner.Start (int_of id "flow id")) :: b.schedule
  | [ "stop"; id; "at"; time ] ->
    let time = non_negative "stop time" (float_of time "stop time") in
    b.schedule <- (time, Runner.Stop (int_of id "flow id")) :: b.schedule
  | keyword :: _ -> fail "unknown directive %S" keyword

let parse text =
  let b =
    {
      scheme = Runner.Corelite Corelite.Params.default;
      topology = None;
      flows = [];
      floors = [];
      schedule = [];
      duration = None;
      seed = 42;
    }
  in
  try
    List.iteri
      (fun index line ->
        let line =
          match String.index_opt line '#' with
          | Some pos -> String.sub line 0 pos
          | None -> line
        in
        let tokens =
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun token -> token <> "")
        in
        try directive b tokens
        with Syntax message -> fail "line %d: %s" (index + 1) message)
      (String.split_on_char '\n' text);
    let cores, bandwidth, _, _ =
      match b.topology with
      | Some t -> t
      | None -> fail "missing 'topology' directive"
    in
    if b.flows = [] then fail "no flows defined";
    List.iter
      (fun (id, weight, entry, exit) ->
        if weight <= 0. then fail "flow %d: weight must be positive" id;
        if entry < 1 || exit > cores || entry > exit then
          fail "flow %d: span %d..%d outside 1..%d" id entry exit cores)
      b.flows;
    (* A floor is a rate the source paces at whatever the feedback: one
       no link can carry is no contract, and a huge one would run
       without end. *)
    List.iter
      (fun (id, floor) ->
        if floor > capacity_pps bandwidth then
          fail "flow %d: floor %g exceeds the link capacity of %g pkt/s" id floor
            (capacity_pps bandwidth))
      (List.rev b.floors);
    List.iter
      (fun (_, action) ->
        let id = match action with Runner.Start id | Runner.Stop id -> id in
        if not (List.exists (fun (existing, _, _, _) -> existing = id) b.flows) then
          fail "schedule references undefined flow %d" id)
      b.schedule;
    if b.schedule = [] then fail "no start directive";
    let duration =
      match b.duration with Some d -> d | None -> fail "missing 'duration'"
    in
    if duration <= 0. then fail "duration must be positive";
    let cores, bandwidth, delay, queue_capacity = Option.get b.topology in
    Ok
      {
        scheme = b.scheme;
        cores;
        bandwidth;
        delay;
        queue_capacity;
        flows = List.rev b.flows;
        floors = b.floors;
        schedule = List.rev b.schedule;
        duration;
        seed = b.seed;
      }
  with Syntax message -> Error message

let to_string t =
  let buffer = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "topology chain cores=%d bandwidth=%g delay=%g queue=%d" t.cores t.bandwidth
    t.delay t.queue_capacity;
  line "scheme %s" (Runner.scheme_name t.scheme);
  line "seed %d" t.seed;
  line "duration %g" t.duration;
  List.iter
    (fun (id, weight, entry, exit) ->
      match List.assoc_opt id t.floors with
      | Some floor ->
        line "flow %d weight %g from %d to %d floor %g" id weight entry exit floor
      | None -> line "flow %d weight %g from %d to %d" id weight entry exit)
    t.flows;
  List.iter
    (fun (time, action) ->
      match action with
      | Runner.Start id -> line "start %d at %g" id time
      | Runner.Stop id -> line "stop %d at %g" id time)
    t.schedule;
  Buffer.contents buffer

let load path =
  let ic = open_in path in
  let finally () = close_in ic in
  Fun.protect ~finally (fun () ->
      parse (really_input_string ic (in_channel_length ic)))

let run t =
  let engine = Sim.Engine.create () in
  let network =
    Network.chain ~engine ~bandwidth:t.bandwidth ~delay:t.delay
      ~queue_capacity:t.queue_capacity ~cores:t.cores ~specs:t.flows ()
  in
  Runner.run ~scheme:t.scheme ~network ~seed:t.seed ~floors:t.floors
    ~schedule:t.schedule ~duration:t.duration ()
