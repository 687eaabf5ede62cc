// Package modelcc is a from-scratch Go reproduction of "End-to-End
// Transmission Control by Modeling Uncertainty about the Network State"
// (Winstein & Balakrishnan, HotNets 2011): model-based congestion
// control in which the endpoint maintains a probability distribution
// over possible network configurations and at every moment takes the
// action maximizing the expected value of an explicit utility function.
//
// README.md says what each layer does and which command reproduces its
// claim ("Layout" is the inventory, "Running things" the command
// index). testdata/pins holds every pinned result with the command that
// produces it; testdata/checkpins.sh checks them. The benchmarks in
// bench_test.go regenerate the paper's figures and the ablations
// (go test -bench=. -benchmem).
//
// # Package map
//
// The paper's world, simulated:
//
//   - internal/sim: the deterministic discrete-event kernel.
//   - internal/elements: the element language of §3.1 (BUFFER,
//     THROUGHPUT, LOSS, PINGER, INTERMITTENT, …) and a DRR fair queue.
//   - internal/packet, internal/units: the packet type and FIFO, bits
//     and rates.
//   - internal/tcp, internal/trace: TCP baselines and synthetic LTE
//     traces for Figure 1.
//
// The ISENDER:
//
//   - internal/model: a network hypothesis as a 120-byte value over a
//     shared parameter record, advanced exactly (Run, RunAccum,
//     Enumerate); the lagged-twin closed forms (BacklogDone, Lag).
//   - internal/belief: the exact posterior over hypotheses (Exact), one
//     state per class, with recovery, snapshots and Restore.
//   - internal/planner: expected-utility action selection (Decide, one
//     planner.Wake per wake), the rollout memo, the twin closure, the
//     PolicyCache and the Guard's degradation ladder (compiled table →
//     live within budget → last safe → sleep).
//   - internal/rollout: the worker pool and scratch arenas under belief
//     and planner; results are bit-identical at every width.
//   - internal/utility: the §3.3 utility function (Config, Meter).
//   - internal/core: the ISENDER endpoint, a state machine driven by
//     Wake.
//
// Many senders:
//
//   - internal/fleet: N senders on one loop sharing one bottleneck; the
//     Roster owns the bottleneck and per-flow membership, a host runs
//     members (loop, pool, batching scheduler).
//   - internal/shard: the same fleet on K loops under a windowed
//     coordinator, bit-identical at every K, with barrier checkpoints,
//     shard failover and degraded serving through drawn stalls.
//   - internal/lifecycle: member checkpoints and the one lifecycle
//     policy (Controller), run at exact instants by Supervisor and at
//     window barriers by shard.Fleet.
//   - internal/policy: offline-compiled, mmap-served policy tables.
//
// Faults and links:
//
//   - internal/chaos: seeded, replayable fault schedules, applied to one
//     sender's packets by experiments.RunChaos and drawn by the churn
//     and shard-fault schedules.
//   - internal/emu: trace-driven link emulation in the simulator.
//
// Experiments and commands:
//
//   - internal/experiments: every figure and result (Figures 1 and 3,
//     coexistence, fairness sweeps, chaos replay, churn on both
//     runtimes); cmd/ tools and benchmarks are thin wrappers over it.
//   - internal/stats: series and summaries for the figures.
//   - cmd/isender-sim (Figure 3), cmd/bufferbloat (Figure 1),
//     cmd/fleetsim (sweep, churn, fault), cmd/policyc, cmd/tracegen;
//     examples/ shows the library.
//   - cmd/bench: the benchmark BENCHMARK.json declares, a module of its
//     own that go test ./... at the root does not reach.
//
// Every run is deterministic per seed and bit-identical for any
// Workers width or shard count; a change that moves a pin changed a
// result.
package modelcc
