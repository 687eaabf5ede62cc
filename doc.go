// Package modelcc is a from-scratch Go reproduction of "End-to-End
// Transmission Control by Modeling Uncertainty about the Network State"
// (Winstein & Balakrishnan, HotNets 2011): model-based congestion
// control in which the endpoint maintains a probability distribution
// over possible network configurations and at every moment takes the
// action maximizing the expected value of an explicit utility function.
//
// See README.md for a tour ("Layout" is the system inventory, "Running
// things" the per-experiment index). The benchmarks in bench_test.go
// regenerate every figure.
//
// # Parallelism
//
// The inference and planning hot paths run on a shared rollout engine
// (internal/rollout): a bounded worker pool with per-worker scratch
// arenas that shards per-hypothesis work. The width is a knob at every
// layer — belief.Config.Workers, planner.Config.Workers, and
// experiments.ISenderConfig.Workers, which forwards to both — where 0
// means GOMAXPROCS and 1 forces the serial path. Results are
// bit-identical for every width: workers write only per-index slots and
// reductions run in index order (TestDecideParallelEquivalence and
// TestExactParallelEquivalence assert this).
//
// # Fleets
//
// internal/fleet answers §3.5's open multi-sender question at scale: N
// coexisting ISENDERs (2 to thousands) share one bottleneck inside one
// process on the discrete-event loop. Three mechanisms make a large
// fleet affordable — one rollout pool whose scratch arenas serve every
// member (belief.Config.Pool / planner.Config.Pool), a central
// scheduler that batches same-instant acknowledgments into one belief
// update per sender and staggers decision epochs across the fleet, and
// a shared planner.PolicyCache so members in recurring near-identical
// situations reuse one computed decision. Small fleets (N <= 4) keep
// the two-flow coexistence experiments' full model resolution and the
// paper's no-overflow politeness; larger fleets deliberately coarsen
// the model (cross traffic in aggregate chunks via
// model.Params.CrossPktBits, a wider gate-toggle grid) to stay bounded,
// and experiments.FairnessSweep measures what that trade costs: under a
// FIFO bottleneck, fairness degrades with N as winners capture the
// link, while the deficit-round-robin FairQueue restores a near-even
// split. The two-flow coexistence experiments are now thin layers over
// the same machinery (fleet.Member, a fleet of N = 2). The bottleneck
// and the per-flow membership — live member, generation, what retired
// generations injected, the delivery and drop fences — are one type,
// fleet.Roster, which both fleet runtimes embed; a member's loop, pool
// and batching scheduler are its host, one for fleet.Fleet and one per
// shard (fleet.Partition) in internal/shard. cmd/fleetsim drives them from the command line in three modes — sweep
// (the default), churn and fault — each with its own flag set bound
// straight into FairnessConfig or ChurnConfig. Fleet runs are
// bit-identical for any Workers width, like everything else here.
//
// # Compiled policy tables
//
// internal/policy turns the fleet's shared planner.PolicyCache from a
// per-run warm cache into an offline-compiled, persistent control map.
// policy.Compile replays fleet workloads and captures every
// fingerprint → action pair the live planner computes into a
// versioned flat table (a header binding the file to the model prior
// and fingerprint quanta via policy.HashPrior, then fixed-width
// records sorted by fingerprint); policy.Open mmaps it read-only and
// serves lookups allocation-free in effectively O(1) (a 4096-bucket
// prefix index over a binary search). The table is wired in as
// fleet.Config.Table, making it rung 0 of planner.Guard's degradation
// ladder, probed with the wake (planner.WakePolicy) so a wake's
// decisions share one support print: a covered belief is served the recorded action bit-identical
// to what live planning would compute, an uncovered one falls through
// to live planning and can be appended to a sidecar miss log
// (policy.MissLog) that seeds the next compile via policy.Merge. Every
// record carries a second, independently-seeded verification hash, so
// a fingerprint collision is detected and treated as a miss rather
// than served a wrong action. cmd/policyc exposes
// compile/inspect/verify/merge. On its own workload (N = 32, 20 s,
// seed 5) the table served every decision with utility identical to
// live planning (PR 4); cmd/bench's serve-256 workload gates the 100 %
// hit rate today.
//
// # Failure model
//
// The runtime degrades instead of panicking. internal/chaos supplies a
// seeded, replayable fault schedule — ack-loss bursts, reordering,
// duplication, byte corruption, multi-second blackouts, proxy stalls,
// clock jumps — that plugs into both the real-socket path
// (emu.ProxyConfig.Chaos / AckChaos) and the DES path
// (experiments.RunChaos, which runs its sends and acknowledgments through
// the injectors), so one fault trace replays bit-identically in
// either world. Against it: internal/wire returns typed errors for any
// malformed datagram (fuzzed, corpus checked in) and owns the socket
// path's one read loop (wire.ReadLoop: read deadlines, transient errors
// counted and retried with capped backoff), which internal/transport and
// both directions of internal/emu's proxy run; internal/transport clamps
// non-monotone clocks and arms wake timers in the logical clock
// domain; internal/belief recovers from likelihood collapse by
// deterministically re-seeding from the prior (belief.Config.Recover,
// counted in Belief.Lifetime and checkpointed through Belief.Snapshot);
// and internal/planner bounds every decision with planner.Guard's
// degradation ladder — the compiled policy table when one is wired,
// else live Decide within the budget, else the quantized PolicyCache
// entry, else the last safe action, else sleep one grid step. cmd/soak
// runs the transport over loopback (transport.RunLoopback, the one
// receiver ↔ proxy ↔ sender rig) through the standard fault menu and
// prints a verdict per invariant; the DES replay of the menu is pinned
// in internal/experiments' tests. See README.md ("Failure model").
//
// # Shard fault tolerance
//
// internal/shard runs the fleet's flows on K parallel DES loops under
// a windowed conservative-lookahead protocol whose results are
// bit-identical for every shard count; internal/shard/fault.go makes
// that split survivable. Shards checkpoint resident members
// incrementally at window barriers through the internal/lifecycle
// codec (checkpoint stores are topology-free: K = 1 and K = 8 produce
// byte-identical bytes). Deterministic kill and stall schedules are
// drawn from chaos.Sub("shardfault") over virtual shards — the 16
// policy-cache stripe residue classes — so the affected member set is
// K-invariant; on a kill, flows re-home onto the next surviving
// partition in ring order (a home-table rewrite: their accounting lives
// in the coordinator's roster and does not move), restore hot/warm/cold
// from the latest barrier checkpoint, and the dead generation's
// post-checkpoint in-flight sends are fenced at the coordinator's peek
// so no generation's delivery or drop accounting ever merges across a
// failover. A wall-clock watchdog (EnableWatchdog) pins an
// overrunning partition's members to planner.Guard's degradation
// ladder for the next window and counts every decision served that
// way.
//
// Three restart/degradation ladders therefore compose orthogonally:
// the shard failover ladder (how a flow comes back on a surviving
// partition), the restart ladder (how a churned or crashed member
// comes back on its own partition), and the planner.Guard degradation
// ladder (what a live member does when a decision or window runs over
// budget). The first two are one function of lifecycle.Controller (warm
// from the flow's latest checkpoint, hot from the compiled table, cold
// from the prior) reached by two paths — at the barrier that lost the
// shard, fenced, or after backoff and drain. The Controller is the whole
// lifecycle policy — health verdict, backoff, drain wait, churn draws,
// flow allocation, rungs, checkpoint capture — written once and run on
// two clocks: at exact instants by the single-loop lifecycle.Supervisor,
// at coupling-window barriers by shard.Fleet, which embeds it. The
// barrier clock's replay hash, failover counters, fence counts, and every
// generation's record are bit-identical for shards in {1, 2, 4, 8}
// under a fixed seed, with or without churn layered on top, and under
// generated schedules (TestGeneratedSchedules). Over ten seeds at
// N = 16 a warm failover's restored generation absorbs its first
// delivery 3.0 ± 1.5 virtual seconds after the kill barrier against
// 14.4 ± 2.5 for a cold one (PR 17; cmd/fleetsim fault -shard-crash
// [-no-ckpt] prints both). experiments.RunChurn is the one lifecycle
// experiment over both runtimes — ChurnConfig.Shards 0 the supervised
// loop, >= 1 the barrier runtime — with one reduction and one table, so
// the two clocks' fairness and recovery columns are read side by
// side (README, "One experiment over both").
//
// # Performance
//
// Live planning is where a fleet's processor time goes (planner.Decide
// is about nine tenths of it on a 256-sender fleet), and Decide is built
// around not repeating work: one baseline rollout per hypothesis that
// candidates fork from, candidates retired when they reconverge, pool-
// resident scratch so a decision on one worker allocates nothing, a
// rollout memo that sweeps each distinct hypothesis once, and a sweep
// that is a stream: deliveries fold straight into one discount
// accumulator per rollout (model.State.RunAccum, model.Accum) with the
// exp(−Δ/κ) step factors shared per worker (model.StepTable), so no
// event is recorded under Decide — the same advance loop as State.Run,
// the same segment partition and summation order, hence the same bits
// (TestDecideStreamMatchesEventSweep, FuzzRunStreamMatchesRun). The
// advance loop itself is built around arrivals: every link completion
// due before the next pinger tick or send drains in one inner loop.
//
// On a fleet a candidate's consequences never cease to linger: the
// modeled link stays busy to the horizon, the candidate's packet joins
// the backlog and everything behind it leaves one service time later,
// so the lane never reconverges. Such a lane is a lagged twin of its
// baseline (the theorem is at model.State.BacklogDone, fuzzed by
// FuzzLaggedTwin) and is not simulated: the sweep defers it at its fork,
// with no state of its own, while the baseline writes one bounded log —
// its gaps, its value at each candidate's u and at its deliveries near the
// horizon, how long the premises held (model.Accum.Watch) — and the first
// stop that breaks a premise turns every deferred lane whose lag is still
// owed back into a simulated one, replayed to its fork, bit for bit. Where
// the link idles, as on the paper's Figure 3, the baseline's idle time
// absorbs the lag (the corollary, fuzzed by FuzzAbsorbedTwin; model.Lag).
// A lane whose packet is not through by the horizon closes the same way,
// its packet worth 0. On a quiet hypothesis, which nothing arrives at to
// the horizon, there is nothing to stretch: every lane closes with its
// packet's value (fuzzed through planner.Decide by FuzzDrained), and the
// baseline stops at the first stop after the last fork where its link is
// idle, its log holding to the horizon as it is. So every lane the gate
// lets close is deferred or dropped where it forks, and only a revived
// one is simulated.
//
// The decisions a wake makes after its first (core.Sender.Wake decides,
// sends and decides again: the same belief at the same instant with one
// more own packet committed) plan against the first one's baseline
// carrying m service times of extra work — the same theorem, applied to
// the baseline, across its gaps too. So one closure (planner.twinLog.close)
// closes every candidate of every decision of the burst from the first
// decision's log: the first's into its vector when its sweep ends, a later
// one's when it misses the rollout memo and asks — or, when the first
// sends on a link that never idles, every depth at once, each stored in
// the memo under its later decision's key (FuzzTwinStack and
// FuzzAbsorbedTwin hold the deeper half of the theorem). The memo is the
// one store of gain vectors; the log is kept per hypothesis index. A depth
// whose premise the log cannot establish is swept, never guessed. The
// closed gains differ from simulated ones by a summation order, far under
// the planner's tie band, so decisions, digests and tables do not move.
// The rule is canonical — a key's vector is a function of the key: a log
// that is gone is remade by sweeping the first decision's baseline, never
// replaced by a direct sweep — so a warm, cold or evicted memo still
// cannot reach a decision. planner.MemoStats counts lanes closed (dropped
// where they fork included), lanes deferred then simulated, vectors
// derived and first decisions swept for a later one.
//
// What only the wake decides (top-K copy, rollout-key hashes, the
// fingerprint's support half) is paid for once per planner.Wake — by the
// planner, the policy cache and the compiled table alike: the Guard
// probes a table that implements planner.WakePolicy (policy.Server does)
// with the wake, not with the bare support.
//
// The memo keys a hypothesis by exactly what a gate-frozen rollout reads
// of it (model.State.AppendRolloutKey: rates, sizes, what is in service and
// queued, every time relative to the decision instant — and not
// ParamsID, the toggle grid, a gated-off pinger's rate, sequence
// numbers or the weight), so hypotheses that differ only in what a
// rollout cannot see, within one belief or across fleet members a few
// milliseconds apart, share one sweep; about four in ten of a fleet's
// planned hypotheses do. A hit returns bit for bit what the sweep would
// compute, so the memo — a fixed 4 Ki-entry direct-mapped table on the
// rollout.Pool, one per fleet or shard partition, no option to set —
// cannot reach a decision, a replay hash or a compiled table. Its
// counters (fleet.Fleet.MemoStats, shard.Fleet.MemoStats) are printed
// by cmd/fleetsim beside the policy cache's.
//
// Off the planning path — a decision served from a compiled table
// costs one belief.Update and one probe — the support is walked once
// per wake, in place, a word at a time. Exact keeps one state per class
// (model.State.SameClass: equal in everything the advance reads, so
// hypotheses that differ only in LossProb, InitFullBits and ParamsID);
// each hypothesis is a (class, grid point, weight) entry. Exact.Update
// runs every class where it lives (model.State.Enumerate), weighs its
// events under each member's loss probability straight out of the
// worker's scratch, and clones only at a fork, into a slot and queue
// buffer recycled from a class an earlier update dropped; slots change
// hands by exchanging buffers, so each buffer has one owner and a wake
// that forks nothing allocates nothing. The reduce, compaction and floor
// run per hypothesis in the old order, class branches that came to hold
// equal states merge, and the Support headers are written once per
// Update, each hypothesis's queue aliasing its class's. The posterior is
// bit-identical to the clone-per-branch, per-hypothesis update it
// replaced (kept as a test reference), at any worker count; what Support
// returns is valid until the next Update and must not be written. Compaction merges two hypotheses
// exactly when their Keys are equal (State.SameKey, field by field),
// bucketed by a constant-time hash of the state's header
// (State.KeyHead). planner.Fingerprint, State.KeyHead and the rollout
// memo share one word-wise mixer with an independently seeded verify
// stream (model.Mix); equality classes are unchanged, hash
// values are not, so policy tables and sidecars are version 2 and
// version 1 files are refused.
//
// The one benchmark is cmd/bench, declared by BENCHMARK.json at the
// repository root: four fixed-window workloads (fig3-solo, fleet-256,
// shard-1024, serve-256), twelve end-to-end metrics with regression
// bounds, and a traced run that attributes the time to layers. Every
// performance claim is stated in its metric names, from ten or more
// interleaved runs of the parent and the change:
//
//	bash cmd/bench/run.sh --workload fleet-256 --seed 42 --seconds 20 --trace 0
//	go run -C cmd/bench . run -workload fleet-256 -out runs.jsonl
//	go run -C cmd/bench . diff parent.jsonl change.jsonl
//	go run -C cmd/bench . trace -workload fleet-256
//	go test -C cmd/bench .
//
// cmd/bench is its own module, so go test ./... at the root does not
// reach it. go test -bench=. -benchmem still regenerates the paper's
// figures and the ablations.
package modelcc
