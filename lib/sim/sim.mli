(** Deterministic discrete-event simulation core.

    The foundation everything else runs on: a virtual clock with an
    event heap ({!Engine}), a splittable deterministic PRNG ({!Rng}),
    statistics accumulators ({!Stats}), and time series ({!Timeseries}).

    Determinism is a design contract, not an accident: simultaneous
    events fire in FIFO order, every random draw descends from the
    run's root seed via {!Rng.split}, and wall-clock time never enters
    the simulation. The contract is enforced mechanically — the static
    lint pass ([tools/typelint], [dune build @lint]) bans raw randomness
    and wall-clock reads outside {!Rng}, and {!Invariant} audits the
    runtime side when {!Invariant.default} is on. Re-running any
    experiment with the same seed reproduces it bit for bit. *)

(** Binary min-heap of timestamped entries. *)
module Event_queue = Event_queue

(** Growable circular FIFO buffer — the allocation-free [Stdlib.Queue]
    replacement for hot-path packet buffers. *)
module Ring = Ring

(** The virtual clock and scheduler. *)
module Engine = Engine

(** Splitmix64 pseudo-random numbers with stream splitting. *)
module Rng = Rng

(** Tolerance-based float comparison (lint rule L2's helpers). *)
module Floats = Floats

(** Runtime invariant auditing behind one process-wide switch. *)
module Invariant = Invariant

(** Declarative, seed-deterministic fault plans (interpreted by
    [Net.Fault] and the scheme deployments). *)
module Faultplan = Faultplan

(** Time-weighted averages, EWMA, Welford. *)
module Stats = Stats

(** Append-only (time, value) series with windows and smoothing. *)
module Timeseries = Timeseries

(** Structured ring-buffer event tracing (one tracer per {!Engine}). *)
module Trace = Trace

(** Counter/histogram/probe registry (one per {!Engine}). *)
module Metrics = Metrics
