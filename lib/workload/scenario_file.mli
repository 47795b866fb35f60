(** Textual scenario files.

    A small line-oriented format for defining experiments without
    writing OCaml — one directive per line, [#] starts a comment:

    {v
    # Two-class chain with a contracted flow.
    topology chain cores=4 bandwidth=4000000 delay=0.04 queue=40
    scheme corelite          # corelite | csfq | plain
    seed 7
    duration 200

    flow 1 weight 2 from 1 to 2
    flow 2 weight 1 from 1 to 4 floor 50
    flow 3 weight 3 from 2 to 4

    start 1 at 0
    start 2 at 0
    start 3 at 10
    stop 3 at 150
    v}

    Flows not mentioned in any [start] directive never run. The
    [topology] directive and at least one flow and one start are
    required; [duration] is required and positive; [scheme] defaults to
    corelite, [seed] to 42. Every number must be finite: [nan] and
    [inf] are syntax errors. A value the run would reject — fewer than
    two cores, a non-positive bandwidth or queue, a negative delay,
    floor, flow id or schedule time — is an error on its line, and so
    is a bandwidth above 1 Tbit/s (1e12), where a packet's transmission
    time would fall under the clock's resolution. A floor above the
    link capacity (bandwidth over 8,000 bits per packet) is an error
    for the file: no link could carry the contract, and the source
    would pace at it regardless. *)

type t = {
  scheme : Runner.scheme;
  cores : int;
  bandwidth : float;
  delay : float;
  queue_capacity : int;
  flows : (int * float * int * int) list;  (** (id, weight, entry, exit) *)
  floors : (int * float) list;
  schedule : (float * Runner.action) list;
  duration : float;
  seed : int;
}

(** Parse scenario text; it never raises. [Error message] carries the
    offending line number and reason ("line N: ..."), or names what the
    file as a whole lacks or gets wrong: a missing [topology] or
    [duration], no flow, no start, a non-positive duration, a flow's
    weight, span or floor ("flow N: ..."), or a schedule entry for an
    undefined flow. *)
val parse : string -> (t, string) result

(** Read and parse a file. *)
val load : string -> (t, string) result

(** Render back to the textual format ([parse (to_string t) = Ok t]
    modulo float formatting — property-tested). *)
val to_string : t -> string

(** Build the network and execute the scenario. *)
val run : t -> Runner.result
