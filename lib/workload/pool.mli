(** Parallel deterministic scenario executor on OCaml 5 domains.

    Every independent run in the evaluation — a figure replay, a sweep
    point, a replication seed, a multi-cloud scenario — is a closed
    job: it builds its own engine and network, draws randomness only
    from its own stream, and returns a payload. That closure is what
    makes sharding them across domains safe: results are bit-identical
    to serial execution because nothing a job touches depends on where
    or when it runs.

    {!map} executes a batch of such jobs on up to
    [Domain.recommended_domain_count ()] workers. Scheduling is a
    single shared job sequence with an atomic cursor: every idle worker
    steals the next pending job, so a long job (fig3's 800 simulated
    seconds) never serializes behind short ones and no static partition
    can go unbalanced. Job placement is nondeterministic; payloads are
    not.

    {!run_scenarios} adds the two per-worker conventions on top:

    - each scenario's generator is {!Sim.Rng.scenario}[ ~seed ~id] — a
      pure function of the root seed and the scenario's label, so the
      stream a scenario sees never depends on sibling scenarios or on
      placement (see CONTRIBUTING.md, "per-scenario RNG streams");
    - each worker owns one {!Sim.Engine.t} and {!Sim.Engine.reset}s it
      between jobs, so engine storage is reused across a sweep's dozens
      of runs without leaking any ordering state from one run into the
      next.

    Workers never print and never touch the filesystem (lint rules
    L1/L3 are taught exactly that: [Domain] is banned outside this
    module, printing and file I/O stay in the coordinator); jobs return
    their series/CSV payloads and the coordinator alone writes them. *)

(** A closed unit of work: [run] must not share mutable state with any
    other job. [id] names the job in diagnostics and derives nothing —
    contrast {!scenario}, whose label picks the RNG stream. *)
type 'a job = { id : string; run : unit -> 'a }

val job : id:string -> (unit -> 'a) -> 'a job

(** [Domain.recommended_domain_count ()] — the worker count {!map} and
    {!run_scenarios} default to. *)
val default_domains : unit -> int

(** [map ~domains jobs] runs every job and returns the results in
    submission order. [domains] (default {!default_domains}) caps the
    worker count; it is further clamped to the job count, and [<= 1]
    runs inline on the calling domain with no spawns at all. If any job
    raises, the first raising job's exception (in submission order) is
    re-raised after every worker has drained — workers are never
    leaked. *)
val map : ?domains:int -> 'a job list -> 'a list

(** [map_groups ~domains groups] runs every group's jobs as one
    {!map} batch, so workers steal across group boundaries, and returns
    each group's results under its name, in submission order. With
    [~domains:1] it is a per-group [List.map] run inline. *)
val map_groups : ?domains:int -> ('k * 'a job list) list -> ('k * 'a list) list

(** A scenario: a job that receives its deterministic RNG stream and a
    worker-owned, freshly {!Sim.Engine.reset} engine. *)
type 'a scenario = {
  label : string;  (** derives the RNG stream; unique per batch *)
  scenario : engine:Sim.Engine.t -> rng:Sim.Rng.t -> 'a;
}

(** [run_scenarios ~domains ~seed scenarios] executes each scenario
    with [rng = Sim.Rng.scenario ~seed ~id:label] on a reused
    per-worker engine, returning results in submission order. Running
    with [~domains:1] (or on one core) produces bit-identical payloads.
    @raise Invalid_argument if two scenarios share a label — they
    would silently share an RNG stream. *)
val run_scenarios : ?domains:int -> seed:int -> 'a scenario list -> 'a list
