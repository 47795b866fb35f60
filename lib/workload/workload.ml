(** The evaluation layer: networks, scenarios, runners and analyses.

    {!Network} builds the paper's Topology 1, generic chains, single
    bottlenecks and generated graphs; {!Runner} executes a start/stop
    schedule under a scheme (Corelite, weighted CSFQ, or plain
    loss-driven sources) and samples the series the figures plot;
    {!Figures} encodes Figures 3-10 of the paper with their
    measurement phases and references; {!Sweeps} the sensitivity and
    ablation grid; {!Chaos} the fault-injection battery (loss, flaps,
    router resets); {!Replication} multi-seed statistics; {!Adversary}
    unresponsive sources, from a constant-rate blaster to a bursting
    CLEF-style heavy hitter; {!Tcp_workload} TCP micro-flows in
    shaped aggregates; {!Tcp_direct} raw TCP over each core discipline;
    {!Multi_cloud} inter-domain chaining;
    {!Scenario_file} a small text DSL; {!Csv} series export;
    {!Pool} the parallel deterministic scenario executor;
    {!Scale} the streaming harness over generated {!Topo} graphs. *)

module Pool = Pool
module Network = Network
module Runner = Runner
module Figures = Figures
module Sweeps = Sweeps
module Chaos = Chaos
module Replication = Replication
module Tcp_workload = Tcp_workload
module Tcp_direct = Tcp_direct
module Multi_cloud = Multi_cloud
module Scenario_file = Scenario_file
module Csv = Csv
module Arrivals = Arrivals
module Adversary = Adversary
module Churn = Churn
module Scale = Scale
