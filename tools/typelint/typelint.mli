(** Corelite's static-analysis pass: determinism, hygiene, allocation
    and domain-safety rules checked from [.cmt]/[.cmti] files.

    The simulator's headline claim — weighted max-min fairness with no
    per-flow core state — is only reproducible if every run is strictly
    deterministic and the per-packet path does not allocate. The pass
    walks the {b Typedtree} the compiler leaves in [.cmt]/[.cmti]
    files, so its rules see resolved paths (a module alias cannot hide
    a banned call), inferred types and record representations.

    Determinism and hygiene, checked on every resolved identifier:

    - {b L1 determinism}: [Stdlib.Random], [Unix.gettimeofday],
      [Unix.time], [Sys.time] and [Hashtbl.create ~random:true] are
      banned everywhere except [lib/sim/rng.ml]; all stochastic
      behaviour must flow through [Sim.Rng]. Likewise [Domain] and
      [Thread] are banned everywhere except [lib/workload/pool.ml]:
      parallelism goes through [Workload.Pool], whose job results are
      bit-identical to serial execution by construction.
    - {b L2 float equality}: [=], [<>], [==], [!=] and polymorphic
      [compare] used at type [float] are flagged, whether applied,
      partly applied or passed on ([List.sort compare] over floats);
      use a tolerance helper such as [Sim.Floats.near], [Float.compare]
      for an order, or waive a comparison that is exact by design.
    - {b L3 logging hygiene}: direct printing ([print_endline],
      [Printf.printf], [Format.printf], ...) and the [stdout] /
      [stderr] channels are banned inside [lib/]; libraries return
      payloads (or log through [Logs]).
    - {b L4 interface coverage}: every [.ml] under [lib/] must have a
      matching [.mli] (its [.cmt] has a [.cmti] beside it).
    - {b L5 unsafe escape hatches}: [Obj.magic] and [Stdlib.exit] are
      banned inside [lib/].
    - {b L6 hot-path queues}: [Stdlib.Queue] is banned inside [lib/sim]
      and [lib/net] — the per-packet hot path — because every
      [Queue.push] allocates a cell. Use [Sim.Ring].
    - {b L7 fault injection}: [bernoulli] loss coins are banned inside
      [lib/net] and [lib/corelite] except in [lib/net/fault.ml]: faults
      enter the data path through [Net.Fault] driving a declarative
      [Sim.Faultplan], so chaos runs replay from [(fault_seed, label)].
    - {b L8 telemetry}: direct channel writes ([open_out],
      [output_string], [Out_channel], [Printf.fprintf], ...) are banned
      inside [lib/]; only the coordinating executable touches the
      filesystem, which keeps pooled runs byte-identical to serial
      ones. [Format.fprintf] to a caller-supplied formatter stays legal.
    - {b L9 arrival sampling}: [exponential] and [pareto] draws are
      banned inside [lib/] outside [lib/workload]: arrival-process
      sampling belongs to [Workload.Arrivals], whose plans are pure
      [(seed, label)] values.

    Allocation and domain safety:

    - {b T1 zero-alloc}: a function marked [[@corelite.hot]] must
      contain no allocating construct on its steady-state path. The
      annotated set is the per-packet machinery ([Sim.Event_queue],
      [Sim.Engine]'s scheduling core, [Sim.Ring], [Net.Link]'s
      forwarding pipeline, [Qdisc]'s FIFO/RED inner loops,
      [Net.Source] pacing, the Corelite core/edge per-marker paths);
      what those functions call {e outside} the annotated set is a
      trusted boundary (constructors, growth paths, error paths).
      Flagged constructs: closures ([fun]/[function] values nested
      inside the body), tuples, records, non-constant constructor and
      polymorphic-variant applications, array literals, [ref] cells,
      list/string/buffer/printf churn ([@], [^], [List.map],
      [Printf.sprintf], ...), partial applications (the result of an
      application is still a function — a closure is built), boxed
      floats escaping into polymorphic contexts (a [float]-typed
      argument instantiating a type variable, e.g. [Some 3.14] or
      [Hashtbl.replace tbl k 0.1]), and [t.f <- x] where [f] is a
      [float] field of a {e mixed} record (mixed-record float stores
      box a fresh float; all-float records store flat and are exempt —
      the typed pass reads the record representation to tell them
      apart). [raise]/[failwith]/[invalid_arg] applications and
      [assert] bodies are skipped: error paths are not steady state.

    - {b T2 domain-safety}: module-level mutable state under [lib/] —
      [ref] cells, [Hashtbl]/[Buffer]/[Queue]/[Stack] instances,
      arrays, [bytes], records with mutable fields — is flagged unless
      it is an [Atomic.t] or a [Domain.DLS] key. Every [lib/] module
      is reachable from scenarios submitted to [Workload.Pool], so a
      plain module-global cell is a data race (and a determinism leak)
      the moment scenarios run on two domains. Per-instance mutable
      state built inside functions is fine: each scenario owns its
      engine and component instances. Bindings {e inside} function
      bodies are not module state and are never flagged.

    - {b T3 rng-escape}: in the simulation component libraries
      ([lib/sim] outside [rng.ml], [lib/net], [lib/corelite],
      [lib/csfq], [lib/fairness], [lib/topo]) a value of type
      [Sim.Rng.t] may only be {e produced} by the scenario-splitting
      API — [split], [stream], [scenario]. Any other application
      yielding an [Rng.t] (above all [Rng.create], which mints a stream
      from a raw seed outside the [(seed, label)] derivation) and any
      module-level binding of plain type [Rng.t] (a private stream
      stored at the module boundary) is flagged; functions {e
      returning} [Rng.t] are derivation APIs and stay legal.
      [lib/workload] and the executables are the scenario roots and
      are out of scope: they own seeds by design.

    A violation on line [n] of the {e source} file is waived by a
    comment containing [lint: <token>] with the rule's waiver token
    (see {!waiver_token}) on line [n], or opening line [n - 1]: a
    waiver that trails code covers its own line only. L4 is waived by a
    [lint: mli-ok] comment in the first three lines of the uncovered
    [.ml]. Say in the waiver what the site is — e.g. the [Some] per
    [Qdisc] dequeue is waived as the option-based dequeue API, whose
    [Some] dies young.

    Run it with [dune build @lint]: the alias builds the [.cmt] files
    of [lib/], [bin/], [bench/] and [test/] (via dune's [check] alias)
    and fails on any unwaived violation. *)

type rule =
  | L1_determinism
  | L2_float_equality
  | L3_logging
  | L4_mli_coverage
  | L5_unsafe
  | L6_hot_queue
  | L7_fault_inject
  | L8_telemetry
  | L9_arrival
  | T1_alloc
  | T2_domain
  | T3_rng
  | Read_error  (** a [.cmt] that cannot be read; never waivable *)

(** Short machine-readable identifier, e.g. ["L1/determinism"]. *)
val rule_name : rule -> string

(** The token accepted in a [lint: <token>] waiver comment, e.g.
    ["float-eq-ok"] for {!L2_float_equality}. [None] for read errors. *)
val waiver_token : rule -> string option

type violation = {
  file : string;  (** source file (resolved when it exists) *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  rule : rule;
  message : string;
}

(** The attribute marking a function as steady-state hot path. *)
val hot_attribute : string

(** [check_cmt path] reads one [.cmt] or [.cmti] file, applies every
    rule but L4 in the scope implied by the recorded source-file path, and
    filters waived violations by reading the source next to the
    [.cmt] (or at the recorded path). A ppx's output [x.pp.ml] stands
    for its source [x.ml]. Results are sorted by line and column. Scopes, by source path:
    - L1, L2 and T1 everywhere (L1 minus its two owners);
    - L3, L5, L8 and T2 under a [lib] directory component;
    - L6 under [lib/sim] and [lib/net]; L7 under [lib/net] and
      [lib/corelite] except [lib/net/fault.ml]; L9 under [lib/] except
      [lib/workload] and [lib/sim/rng.ml];
    - T3 under [lib/sim] (except [rng.ml]/[rng.mli]), [lib/net],
      [lib/corelite], [lib/csfq], [lib/fairness] and [lib/topo]. *)
val check_cmt : string -> violation list

(** [check_paths roots] walks [roots] for [*.cmt]/[*.cmti] files
    (dune hides them under [.<lib>.objs/byte/]; dot-directories are
    searched), runs {!check_cmt} on each plus L4 on each [lib/]
    implementation, and sorts the result by file, line and column.
    @raise Failure naming the root if a root is missing or holds no
    [.cmt] or [.cmti] file: an empty walk proves nothing. *)
val check_paths : string list -> violation list

(** One line per violation: [file:line:col: [RULE] message]. *)
val report : Format.formatter -> violation list -> unit
