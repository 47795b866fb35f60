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

    A new scenario job takes its generator from
    {!Sim.Rng.scenario}[ ~seed ~id] — a pure function of the root seed
    and the job's label — so the stream it sees never depends on
    sibling jobs or on placement (see CONTRIBUTING.md, "per-scenario
    RNG streams").

    Workers never print and never touch the filesystem (lint rules
    L1/L3 are taught exactly that: [Domain] is banned outside this
    module, printing and file I/O stay in the coordinator); jobs return
    their series/CSV payloads and the coordinator alone writes them. *)

(** A closed unit of work: [run] must not share mutable state with any
    other job. [id] names the job in diagnostics and derives nothing. *)
type 'a job = { id : string; run : unit -> 'a }

val job : id:string -> (unit -> 'a) -> 'a job

(** [Domain.recommended_domain_count ()] — the worker count {!map}
    defaults to. *)
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
