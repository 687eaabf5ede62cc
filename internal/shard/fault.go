package shard

import (
	"sort"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
)

// Shard fault tolerance: barrier checkpoints, deterministic failover,
// and watchdog degradation.
//
// # Virtual shards
//
// The fault unit is the VIRTUAL shard: one stripe residue class, the
// flows congruent to v modulo planner.DefaultCacheStripes. A virtual
// shard is the finest placement granularity the runtime supports — the
// home table maps each one to a partition, and at K =
// DefaultCacheStripes virtual and physical shards coincide. Faults are
// drawn over virtual shards rather than partitions because the member
// set of partition s depends on K, while the member set of residue
// class v does not: a kill schedule over virtual shards touches the
// same flows at the same barriers for every shard count, which is what
// keeps the replay hash bit-identical for shards ∈ {2, 4, 8} under a
// fixed seed. Physical placement is results-neutral (every cross-shard
// interaction funnels through the canonical merge and the peek), so
// re-homing a class to a different survivor at different K cannot
// perturb results either.
//
// # Failover
//
// When virtual shard v is killed at a barrier, the shard memory
// hosting its members is gone; what survives is coordinator-owned
// state: the roster (the bottleneck's deliveries and drops, and every
// flow's cross-generation ledger) and the barrier checkpoint store. The
// class is re-homed to the next partition in ring order by rewriting its
// home-table entry, which also migrates its policy-cache stripe (only its
// hosting partition may touch it); nothing else moves. Then, per flow of
// the class in canonical ascending order:
//
//  1. retire the member from the roster;
//  2. restore the member through the restart ladder
//     (lifecycle.Controller.Evicted, the rung choice churn restarts
//     make too) — warm from its latest barrier
//     checkpoint, hot from the compiled table, cold from the prior —
//     as a NEW generation with freshly fenced counters;
//  3. fence the dead generation's post-checkpoint in-flight sends: the
//     restored sender's NextSeq rewinds to the checkpoint's, so those
//     sequence numbers will be reused, and the stale deliveries must
//     never reach the restored belief. The coordinator swallows any
//     delivery with SentAt in (checkpointAt, killBarrier] at the peek
//     (the whole window for a cold/hot restore, which resumes no
//     pending state) and keeps it out of the restored generation's
//     Delivered (Roster.SkipDelivery). Drops can never need fencing: a
//     drop happens at the injection instant, always before the kill
//     barrier, so it is excluded by the restored generation's base
//     fence.
//
// # Watchdog
//
// Stalls degrade instead of killing: an overrunning shard's members
// serve decisions from the Guard degradation ladder (compiled table →
// cache → last-safe action) without live planning, the sequence-based
// control shape — precomputed actions ride out the outage. The
// deterministic path draws stall windows from chaos.Sub("shardfault")
// over virtual shards; the production path (EnableWatchdog) measures
// each partition's wall-clock time per coupling window and degrades an
// overrunning partition's members for the following window. Both paths
// share Member.SetDegraded and the DegradedServed counters; only the
// trigger differs (drawn virtual time vs measured wall time), so the
// deterministic tests exercise exactly the serving path production
// degrades through.

// VirtualShards is the number of virtual shards (stripe residue
// classes) — the granularity of fault schedules and checkpoint sweeps.
const VirtualShards = planner.DefaultCacheStripes

// CheckpointConfig arms barrier-time member checkpointing.
type CheckpointConfig struct {
	// Every is the period over which every resident member receives
	// one barrier checkpoint (default 4 s). The sweep is incremental —
	// one virtual shard per due tick, round-robin — so checkpoint work
	// spreads across barriers instead of bunching into one.
	Every time.Duration
	// Dir, when non-empty, mirrors each checkpoint to disk under the
	// names lifecycle.SupervisorConfig.Dir documents. The in-memory store
	// is authoritative for failover either way; the mirror is for
	// cross-process restarts.
	Dir string
}

// FaultConfig arms the deterministic shard-kill/stall schedule.
type FaultConfig struct {
	// Epoch is the draw period (default 10 s). Each epoch draws one
	// uniform per virtual shard, in index order, classifying it as
	// kill, stall, or healthy — a pure function of the chaos seed.
	Epoch time.Duration
	// KillProb is a virtual shard's per-epoch probability of being
	// killed at a drawn barrier inside the epoch.
	KillProb float64
	// StallProb is a virtual shard's per-epoch probability of a
	// drawn-length stall, served degraded through the Guard ladder.
	StallProb float64
	// MaxStall bounds a drawn stall's length (default 2 s; stalls are
	// always at least one coupling window).
	MaxStall time.Duration
}

// WatchdogConfig arms the production-path wall-clock watchdog.
type WatchdogConfig struct {
	// WindowBudget is the wall-clock budget one shard may spend
	// running one coupling window; a shard that overruns it has its
	// members served degraded for the following window. Zero disables.
	// Wall-clock verdicts are inherently nondeterministic — leave this
	// off in replay-hash experiments and drive FaultConfig.StallProb
	// instead, which degrades through the identical serving path.
	WindowBudget time.Duration
}

// FailoverStats aggregates shard-fault outcomes.
type FailoverStats struct {
	// ShardKills counts virtual-shard kills executed.
	ShardKills int
	// FlowsFailedOver counts members evicted and restored by kills.
	FlowsFailedOver int
	// WarmFailovers/HotFailovers/ColdFailovers split FlowsFailedOver
	// by the restart-ladder rung the restore landed on.
	WarmFailovers, HotFailovers, ColdFailovers int
	// FencedAcks counts deliveries swallowed by failover fences.
	FencedAcks int64
	// Stalls counts drawn stall windows entered.
	Stalls int
	// WatchdogTrips counts wall-clock budget overruns that degraded a
	// partition (zero without EnableWatchdog).
	WatchdogTrips int64
}

// fenceWin is one swallowed SentAt window: from < SentAt <= to.
type fenceWin struct{ from, to time.Duration }

type ckptState struct {
	cfg      CheckpointConfig
	interval time.Duration
	next     time.Duration
	round    int
}

type groupKill struct {
	at    time.Duration
	group int
}

type groupStall struct {
	at    time.Duration
	dur   time.Duration
	group int
}

type faultState struct {
	cfg       FaultConfig
	src       *chaos.Source
	nextEpoch time.Duration
	kills     []groupKill
	stallq    []groupStall
	stalled   [VirtualShards]bool
	until     [VirtualShards]time.Duration
}

type watchdogState struct {
	cfg      WatchdogConfig
	wall     []time.Duration // last window's wall time per partition
	over     []bool          // last window's verdict per partition
	degraded []bool          // currently-applied degradation per partition
}

// EnableCheckpoints arms barrier-time checkpointing. Call before Run.
// With checkpoints armed, restarts and failovers gain the ladder's warm
// rung; without them they start cold (hot when a compiled table is
// wired).
func (sf *Fleet) EnableCheckpoints(cc CheckpointConfig) {
	if cc.Every <= 0 {
		cc.Every = 4 * time.Second
	}
	interval := cc.Every / VirtualShards
	if interval < sf.Delta {
		interval = sf.Delta
	}
	sf.ckpt = &ckptState{cfg: cc, interval: interval, next: interval}
	sf.priorHash = lifecycle.PriorHashFor(sf.Cfg, sf.Caches)
}

// EnableFaults arms the deterministic shard-kill/stall schedule,
// drawn from chaos.Sub("shardfault"). Call before Run.
func (sf *Fleet) EnableFaults(fc FaultConfig, ch chaos.Config) {
	if fc.Epoch <= 0 {
		fc.Epoch = 10 * time.Second
	}
	if fc.MaxStall <= 0 {
		fc.MaxStall = 2 * time.Second
	}
	sf.fault = &faultState{
		cfg:       fc,
		src:       ch.Sub("shardfault").Source(),
		nextEpoch: fc.Epoch,
	}
}

// EnableWatchdog arms the wall-clock per-window budget. Call before
// Run. See WatchdogConfig for the determinism caveat.
func (sf *Fleet) EnableWatchdog(wc WatchdogConfig) {
	sf.wd = &watchdogState{
		cfg:      wc,
		wall:     make([]time.Duration, sf.K),
		over:     make([]bool, sf.K),
		degraded: make([]bool, sf.K),
	}
}

// PriorHash reports the model identity checkpoints are bound to (zero
// until EnableCheckpoints).
func (sf *Fleet) PriorHash() uint64 { return sf.priorHash }

func (f *faultState) nextDue() (time.Duration, bool) {
	best := f.nextEpoch
	for _, k := range f.kills {
		if k.at < best {
			best = k.at
		}
	}
	for _, s := range f.stallq {
		if s.at < best {
			best = s.at
		}
	}
	for v := 0; v < VirtualShards; v++ {
		if f.stalled[v] && f.until[v] < best {
			best = f.until[v]
		}
	}
	return best, true
}

// checkpointSweep checkpoints one virtual shard's resident members per
// due tick (round-robin) into the controller's store.
func (sf *Fleet) checkpointSweep() {
	c := sf.ckpt
	for sf.now >= c.next {
		v := c.round % VirtualShards
		c.round++
		c.next += c.interval
		for i := v; i < sf.Slots(); i += VirtualShards {
			if m := sf.MemberAt(packet.FlowID(i)); m != nil && !m.Retired() {
				sf.Checkpoint(m, c.cfg.Dir)
			}
		}
	}
}

// faultBarrier processes the fault schedule at barrier sf.now: epoch
// draws, stall transitions, then kills — each in a fixed deterministic
// order.
func (sf *Fleet) faultBarrier() {
	f := sf.fault
	b := sf.now

	// Epoch draws: one classifying uniform per virtual shard in index
	// order (then the instant/duration draws its outcome needs), so
	// the schedule is a pure function of the chaos seed.
	for b >= f.nextEpoch {
		for v := 0; v < VirtualShards; v++ {
			u := f.src.Float64()
			switch {
			case u < f.cfg.KillProb:
				frac := f.src.Float64()
				at := f.nextEpoch + time.Duration(frac*float64(f.cfg.Epoch))
				f.kills = append(f.kills, groupKill{at: at, group: v})
			case u < f.cfg.KillProb+f.cfg.StallProb:
				fa := f.src.Float64()
				fd := f.src.Float64()
				at := f.nextEpoch + time.Duration(fa*float64(f.cfg.Epoch))
				dur := time.Duration(fd * float64(f.cfg.MaxStall))
				if dur < sf.Delta {
					dur = sf.Delta
				}
				f.stallq = append(f.stallq, groupStall{at: at, dur: dur, group: v})
			}
		}
		f.nextEpoch += f.cfg.Epoch
	}

	// Stall ends first (a stall expiring this barrier releases its
	// members before any new degradation is applied).
	for v := 0; v < VirtualShards; v++ {
		if f.stalled[v] && b >= f.until[v] {
			f.stalled[v] = false
			sf.setGroupDegraded(v, false)
		}
	}

	// Due stall starts, in (at, group) order.
	if len(f.stallq) > 0 {
		sort.Slice(f.stallq, func(i, j int) bool {
			if f.stallq[i].at != f.stallq[j].at {
				return f.stallq[i].at < f.stallq[j].at
			}
			return f.stallq[i].group < f.stallq[j].group
		})
		rest := f.stallq[:0]
		for _, s := range f.stallq {
			if s.at > b {
				rest = append(rest, s)
				continue
			}
			if end := s.at + s.dur; end > f.until[s.group] {
				f.until[s.group] = end
			}
			if !f.stalled[s.group] {
				f.stalled[s.group] = true
				sf.Failover.Stalls++
			}
		}
		f.stallq = rest
	}

	// Due kills, in (at, group) order; each kill is a whole-class
	// failover.
	if len(f.kills) > 0 {
		sort.Slice(f.kills, func(i, j int) bool {
			if f.kills[i].at != f.kills[j].at {
				return f.kills[i].at < f.kills[j].at
			}
			return f.kills[i].group < f.kills[j].group
		})
		rest := f.kills[:0]
		for _, k := range f.kills {
			if k.at > b {
				rest = append(rest, k)
				continue
			}
			sf.failoverGroup(k.group)
		}
		f.kills = rest
	}

	// Re-assert degradation on stalled classes last, so members
	// restored (or churn-admitted) into a stalled class this barrier
	// serve degraded too.
	for v := 0; v < VirtualShards; v++ {
		if f.stalled[v] {
			sf.setGroupDegraded(v, true)
		}
	}
}

// setGroupDegraded flips degraded serving for every live member of the
// virtual shard, in ascending flow order.
func (sf *Fleet) setGroupDegraded(v int, on bool) {
	for i := v; i < sf.Slots(); i += VirtualShards {
		if m := sf.MemberAt(packet.FlowID(i)); m != nil && !m.Retired() {
			m.SetDegraded(on)
		}
	}
}

// failoverGroup executes the loss of virtual shard v at the current
// barrier: re-home the class (and with it its policy-cache stripe),
// then evict and ladder-restore each resident flow in canonical order.
func (sf *Fleet) failoverGroup(v int) {
	b := sf.now
	sf.home[v] = (sf.home[v] + 1) % sf.K

	sf.Failover.ShardKills++
	sf.Events = append(sf.Events, lifecycle.Event{At: b, Kind: lifecycle.EventShardFault, Flow: packet.FlowID(v)})

	for i := v; i < sf.Slots(); i += VirtualShards {
		flow := packet.FlowID(i)
		m := sf.Retire(flow)
		if m == nil {
			// Vacant (draining or reserved for a churn restart): a later
			// restart lands on the new home through the rewritten table.
			continue
		}
		sf.Failover.FlowsFailedOver++

		// Restore as a NEW generation with freshly fenced counters,
		// never merged accounting, resuming at the first representable
		// instant after the barrier — failover optimizes
		// time-to-recover, not stagger.
		fenceFrom := time.Duration(-1)
		switch sf.Evicted(m) {
		case lifecycle.RestartWarm:
			sf.Failover.WarmFailovers++
			fenceFrom = sf.LatestCheckpoint(flow).At
		case lifecycle.RestartHot:
			sf.Failover.HotFailovers++
		default:
			sf.Failover.ColdFailovers++
		}
		sf.addFence(flow, fenceFrom, b)
	}
}

// addFence records a swallowed SentAt window (from, to] for the flow;
// an empty window (warm restore from a same-barrier checkpoint) is
// skipped.
func (sf *Fleet) addFence(flow packet.FlowID, from, to time.Duration) {
	if from >= to {
		return
	}
	if sf.fences == nil {
		sf.fences = make(map[packet.FlowID][]fenceWin)
	}
	sf.fences[flow] = append(sf.fences[flow], fenceWin{from: from, to: to})
}

// fenced reports whether a delivery for the flow sent at sentAt falls
// inside a failover fence.
func (sf *Fleet) fenced(flow packet.FlowID, sentAt time.Duration) bool {
	if sf.fences == nil {
		return false
	}
	for _, w := range sf.fences[flow] {
		if sentAt > w.from && sentAt <= w.to {
			return true
		}
	}
	return false
}

// timedRun runs partition i to the window end, timing it when the
// wall-clock watchdog is armed. Each goroutine writes only its own
// wall slot.
func (sf *Fleet) timedRun(i int, end time.Duration) {
	if sf.wd == nil || sf.wd.cfg.WindowBudget <= 0 {
		sf.Parts[i].RunTo(end)
		return
	}
	start := time.Now()
	sf.Parts[i].RunTo(end)
	sf.wd.wall[i] = time.Since(start)
}

// applyWatchdog applies last window's wall-clock verdicts before the
// next window runs: an overrunning partition's members are degraded,
// a recovered partition's are released.
func (sf *Fleet) applyWatchdog() {
	w := sf.wd
	if w.cfg.WindowBudget <= 0 {
		return
	}
	for i := range sf.Parts {
		if w.over[i] == w.degraded[i] {
			continue
		}
		w.degraded[i] = w.over[i]
		if w.over[i] {
			sf.Failover.WatchdogTrips++
		}
		sf.setPartitionDegraded(i, w.over[i])
	}
}

// judgeWatchdog records which partitions blew the window budget.
func (sf *Fleet) judgeWatchdog() {
	w := sf.wd
	if w.cfg.WindowBudget <= 0 {
		return
	}
	for i := range sf.Parts {
		w.over[i] = w.wall[i] > w.cfg.WindowBudget
	}
}

// setPartitionDegraded flips degraded serving for every live member
// currently homed on partition i, in ascending flow order.
func (sf *Fleet) setPartitionDegraded(i int, on bool) {
	for f := 0; f < sf.Slots(); f++ {
		if sf.home[f%VirtualShards] != i {
			continue
		}
		if m := sf.MemberAt(packet.FlowID(f)); m != nil && !m.Retired() {
			m.SetDegraded(on)
		}
	}
}
