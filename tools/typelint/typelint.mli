(** Corelite's typed static-analysis pass: allocation and domain-safety
    guarantees checked from [.cmt] files.

    Where [tools/lint] parses sources (no type information, rules
    L1-L8), this pass walks the {b Typedtree} that the compiler leaves
    in [.cmt]/[.cmti] files — so its rules can see resolved paths,
    inferred types and record representations, and check properties a
    syntactic pass fundamentally cannot:

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
      [lib/csfq], [lib/fairness]) a value of type [Sim.Rng.t] may only
      be {e produced} by the scenario-splitting API — [split],
      [stream], [scenario]. Any other application yielding an [Rng.t]
      (above all [Rng.create], which mints a stream from a raw seed
      outside the [(seed, label)] derivation) and any module-level
      binding of plain type [Rng.t] (a private stream stored at the
      module boundary) is flagged; functions {e returning} [Rng.t] are
      derivation APIs and stay legal — the production rule checks what
      they do inside. [lib/workload] and the
      executables are the scenario roots and are out of scope: they
      own seeds by design. This turns the pool's by-construction
      determinism (PR 2) into a checked invariant: component code can
      consume and derive streams but never originate or leak them.

    Waivers reuse the lint comment machinery: a violation on line [n]
    of the {e source} file is waived when line [n] or [n - 1] carries
    [lint: <token>] with the rule's token ([alloc-ok], [domain-ok],
    [rng-ok]). Parse the waiver sparingly and say what the site is —
    e.g. the [Some] per [Qdisc] dequeue is waived as the option-based
    dequeue API, whose [Some] dies young.

    Run it with [dune build @typelint]: the alias builds the [.cmt]
    files for every library under [lib/] (via dune's [check] alias)
    and fails on any unwaived violation. *)

type rule =
  | T1_alloc
  | T2_domain
  | T3_rng
  | Read_error  (** a [.cmt] that cannot be read; never waivable *)

(** Short machine-readable identifier, e.g. ["T1/zero-alloc"]. *)
val rule_name : rule -> string

(** The token accepted in a [lint: <token>] waiver comment, e.g.
    ["alloc-ok"] for {!T1_alloc}. [None] for read errors. *)
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
    rule in the scope implied by the recorded source-file path, and
    filters waived violations by reading the source next to the
    [.cmt] (or at the recorded path). Results are sorted by line and
    column. Scope rules:
    - T1 wherever a [[@corelite.hot]] binding appears;
    - T2 for sources under a [lib] directory component;
    - T3 for sources under [lib/sim] (except [rng.ml]/[rng.mli]),
      [lib/net], [lib/corelite], [lib/csfq], [lib/fairness]. *)
val check_cmt : string -> violation list

(** [check_paths roots] walks [roots] for [*.cmt]/[*.cmti] files
    (dune hides them under [.<lib>.objs/byte/]; dot-directories are
    searched), runs {!check_cmt} on each, and sorts the result by
    file, line and column. *)
val check_paths : string list -> violation list

(** One line per violation: [file:line:col: [RULE] message]. *)
val report : Format.formatter -> violation list -> unit
