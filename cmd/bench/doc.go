// Command bench is the repository's one benchmark: four workloads, twelve
// end-to-end metrics measured with tracing off, and a separate traced
// run that attributes CPU time to the layers from outside. BENCHMARK.json
// at the root of the repository declares the same names, units,
// directions and bounds; README.md beside this file defines every one.
//
//	bench run      -workload <name> [-seed n] [-seconds s] [-trace 0|1] [-out runs.jsonl]
//	bench trace    the traced run, failing unless tracing was neutral and cheap
//	bench selftest inject a known delay and find it where the tables say
//	bench diff     a.jsonl [b.jsonl]: spread of one set of runs, or two sets against the bounds
//
// # Workloads
//
// All four are closed loops in virtual time — a sender's next decision
// waits for its own acknowledgments and timers — driven from one process
// with one busy goroutine in every timed window.
//
//   - fig3-solo: the paper's Figure 3, one exact-belief ISENDER over the
//     full §4 prior against model.Truth, α ∈ {0.9, 1, 2.5, 5} × two
//     ground-truth seeds, 300 virtual seconds each; four timed passes.
//   - fleet-256: fleet.New(fleet.Config{N: 256, Workers: 1}), virtual
//     interval [10, 23) s after a warm-up over [0, 10); three repeats.
//   - shard-1024: shard.New with N = 1024, K = 1, lean statistics,
//     interval [6, 12) s; three repeats. The traced run compares K = 2.
//   - serve-256: a table compiled from one 16 s replay of the N = 256
//     fleet, then thirty replays served from it.
//
// Windows are absolute virtual intervals because fleet cost is not
// stationary: a member's support grows by about 0.9 hypotheses per
// virtual second, so a late virtual second costs several early ones.
// -seconds scales every interval by seconds/20. Rollout width is pinned
// to Workers: 1 (results are bit-identical at any width; a second worker
// buys no wall time today and costs repeatability); parallelism is
// measured where it is the subject and nothing is bounded, the traced
// shard.k2_speedup and rollout.w2_*: two busy goroutines on a shared
// two-processor host measure the neighbours.
//
// # What is timed
//
// A 20 s window read once swings by a tenth or more on a shared host, in
// bursts a second or two long. So every window is run several times, the
// work is cut into units (a Figure 3 configuration, a twelfth of a fleet
// window), each unit is timed in every repeat, and the reported time is
// the sum of the units' medians. The host's speed itself moves by a
// quarter for minutes at a time, which no statistic inside a run removes:
// so a fixed reference kernel (ref.go) is timed between the units, and
// every host time is divided by how much slower than nominal the kernel
// ran during that repeat (wall times by its wall clock, CPU times and
// decision latencies by its thread's CPU clock). An operation is one
// core.Sender.Wake; it fails if its decision came from Guard rung 3 or 4
// or a timeout, and every wake of a run whose correctness gate fails
// counts as failed.
// Simulated packet drops are an outcome (drop_frac), not failures.
//
// # Tracing from outside
//
// core.Sender.Belief is an interface field, planner.CompiledPolicy an
// interface, and Guard.RecordLatency exists: the traced run wraps the
// first two per sender and reads the third, so no file under internal/
// changes. The first third of a traced run's repeats stays untraced; the
// traced repeats must reproduce its digest and outcome exactly, and
// their extra wall time is trace.overhead_frac.
package main
