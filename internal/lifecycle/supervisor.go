package lifecycle

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/packet"
	"modelcc/internal/sim"
)

// The lifecycle policy's fixed thresholds, read by both runtimes.
const (
	// maxReseeds declares a member failed when its belief re-seeded from
	// the prior at least this many times within one Interval — the
	// posterior keeps collapsing, so the member has lost its model of
	// the network.
	maxReseeds = 2
	// drainPoll is how often a pending restart re-checks a flow whose
	// predecessor still has packets in flight; the restart waits for a
	// full drain so the fenced per-flow counters stay unambiguous.
	drainPoll = 250 * time.Millisecond
)

// SupervisorConfig tunes the lifecycle policy. Zero values take the
// defaults noted on each field (WithDefaults). The sharded runtime reads
// the same health and backoff fields; its checkpoint schedule is
// shard.CheckpointConfig, so CheckpointEvery does not apply there.
// Checkpoints are held in memory, one per flow (the latest).
type SupervisorConfig struct {
	// Interval is the health-check period (default 2 s virtual).
	Interval time.Duration
	// CheckpointEvery is the checkpoint period (default 10 s); negative
	// disables checkpointing, which forces every restart cold (or hot
	// when the fleet serves a compiled table).
	CheckpointEvery time.Duration
	// BackoffBase and BackoffCap bound the restart delay: after k
	// consecutive restarts of a flow the next waits min(BackoffBase·2^k,
	// BackoffCap) (Backoff). Defaults 500 ms and 16 s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// WithDefaults returns the configuration with every zero field
// replaced by its documented default.
func (c SupervisorConfig) WithDefaults() SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 16 * time.Second
	}
	return c
}

// Backoff is the delay before a flow's next restart after attempts
// consecutive ones: min(BackoffBase·2^attempts, BackoffCap), compared
// before shifting so a large base saturates at the cap instead of
// wrapping.
func (c SupervisorConfig) Backoff(attempts int) time.Duration {
	if attempts >= 63 || c.BackoffBase > c.BackoffCap>>attempts {
		return c.BackoffCap
	}
	return c.BackoffBase << attempts
}

// EventKind classifies a lifecycle event.
type EventKind uint8

// Lifecycle event kinds.
const (
	// EventAdmit is a fresh arrival (a brand-new member, not a restart).
	EventAdmit EventKind = iota
	// EventDepart is a permanent voluntary departure.
	EventDepart
	// EventCrash is an abrupt kill (chaos churn or Kill).
	EventCrash
	// EventFail is a supervisor-declared health failure.
	EventFail
	// EventRestart is a supervised restart of a failed/crashed flow.
	EventRestart
	// EventShardFault is the loss of a whole (virtual) shard in the
	// sharded runtime: Flow carries the virtual shard index, and the
	// per-flow EventCrash/EventRestart pairs of the failover follow it
	// in the log.
	EventShardFault
)

func (k EventKind) String() string {
	switch k {
	case EventAdmit:
		return "admit"
	case EventDepart:
		return "depart"
	case EventCrash:
		return "crash"
	case EventFail:
		return "fail"
	case EventRestart:
		return "restart"
	case EventShardFault:
		return "shardfault"
	}
	return fmt.Sprintf("eventkind(%d)", uint8(k))
}

// RestartKind is the rung of the restart ladder a member started on.
type RestartKind uint8

// Restart ladder rungs, coldest first.
const (
	// RestartCold starts from the prior alone.
	RestartCold RestartKind = iota
	// RestartHot starts from the prior but serves decisions from the
	// fleet's compiled policy table immediately.
	RestartHot
	// RestartWarm restores the member's last checkpoint (and keeps the
	// table, when present, as Guard rung 0).
	RestartWarm
)

func (k RestartKind) String() string {
	switch k {
	case RestartCold:
		return "cold"
	case RestartHot:
		return "hot"
	case RestartWarm:
		return "warm"
	}
	return fmt.Sprintf("restartkind(%d)", uint8(k))
}

// Event is one entry in the deterministic lifecycle log.
type Event struct {
	At   time.Duration
	Kind EventKind
	Flow packet.FlowID
	// Gen is the generation the event concerns: the retired generation
	// for depart/crash/fail, the newly admitted one for admit/restart.
	Gen uint32
	// Restart is the ladder rung, meaningful only for EventRestart.
	Restart RestartKind
	// Attempt is the consecutive-restart attempt number, meaningful
	// only for EventRestart.
	Attempt int
}

// Hasher is the little-endian uint64 FNV-1a accumulator under every
// replay hash and run digest in the repo.
type Hasher struct{ h hash.Hash64 }

// NewHasher returns an empty accumulator.
func NewHasher() *Hasher { return &Hasher{h: fnv.New64a()} }

// Put folds words into the hash, eight little-endian bytes each.
func (x *Hasher) Put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		x.h.Write(b[:])
	}
}

// Sum reports the hash of everything Put so far.
func (x *Hasher) Sum() uint64 { return x.h.Sum64() }

// ReplayHash digests a finished lifecycle run on either runtime: the
// flow-space size, live count, bottleneck drops and orphan acks, each
// flow's all-generations delivery total (delivered, in flow order) and
// the whole event log. Equal hashes mean bit-identical runs.
func ReplayHash(live, drops int, orphans int64, delivered []int, events []Event) uint64 {
	h := NewHasher()
	h.Put(uint64(len(delivered)), uint64(live), uint64(drops), uint64(orphans))
	for i, d := range delivered {
		h.Put(uint64(i), uint64(d))
	}
	for _, e := range events {
		h.Put(uint64(e.At), uint64(e.Kind), uint64(e.Flow), uint64(e.Gen), uint64(e.Restart))
	}
	return h.Sum()
}

// Cause is how a member generation came to exist.
type Cause uint8

// Member generation causes.
const (
	// CauseInitial is one of the fleet's starting members.
	CauseInitial Cause = iota
	// CauseArrival is a fresh churn arrival.
	CauseArrival
	// CauseRestart replaced a failed or crash-killed predecessor after
	// backoff and drain.
	CauseRestart
	// CauseFailover was restored at the barrier that lost its
	// predecessor's shard (sharded runtime only).
	CauseFailover
)

// MemberRecord tracks one member generation across its whole life, so
// experiments can window its series even after the flow was recycled.
// Both runtimes keep one for every generation they admit.
type MemberRecord struct {
	// M is the generation's member (M.Flow, M.Gen and M.AdmittedAt
	// identify it; its series stay readable after retirement).
	M *fleet.Member
	// Cause is how the generation started.
	Cause Cause
	// Kind is the ladder rung it started on (RestartCold for initial
	// members and fresh arrivals without a table, RestartHot with one).
	Kind RestartKind
	// FirstAckAt is the virtual instant the generation absorbed its
	// first acknowledged delivery — for a failover restore, its
	// recovery point. Zero means it never did (retired first, or the
	// run ended). Only the sharded runtime fills it.
	FirstAckAt time.Duration
	// RetiredAt is when the generation was torn down; -1 while live.
	RetiredAt time.Duration
}

// Stats counts lifecycle activity. CheckpointErrors counts restores that
// failed — a checkpoint the restart then discarded for a cold or hot
// start — since capturing one cannot fail.
type Stats struct {
	Checkpoints, CheckpointErrors           int
	Failures, Crashes, Departures, Arrivals int
	ColdRestarts, HotRestarts, WarmRestarts int
}

// BeliefReseeds reads the belief's lifetime re-seed count, the
// "posterior keeps collapsing" health signal.
func BeliefReseeds(m *fleet.Member) int { return m.Sender.Belief.Lifetime().Reseeded }

// Supervisor is the Controller on the single loop: a health sweep every
// Interval, a whole-fleet checkpoint every CheckpointEvery and, with
// EnableChurn, a churn epoch every Epoch, each a sim.Timer on the
// fleet's loop, while restarts and crash-kills fire at their exact
// deferred instants. It lives entirely on the fleet's discrete-event
// loop — no goroutines — and the same seed replays the same lifecycle
// log bit-identically. The embedded fleet's Roster supplies the
// membership half of Runtime; the Supervisor adds only the clock (Now,
// DeferRestart, DeferKill) and Host.
type Supervisor struct {
	Controller
	*fleet.Fleet

	health, checkpoints, epoch *sim.Timer
	started, stopped           bool
}

// NewSupervisor builds a supervisor over the fleet's current members.
// Call Start before (or while) the loop runs.
func NewSupervisor(fl *fleet.Fleet, cfg SupervisorConfig) *Supervisor {
	s := &Supervisor{Fleet: fl}
	s.Bind(s, fl.Cfg)
	s.cfg = cfg.WithDefaults()
	s.health = sim.NewTimer(fl.Loop, func() {
		s.Health()
		s.health.Arm(s.cfg.Interval)
	})
	s.checkpoints = sim.NewTimer(fl.Loop, func() {
		s.scratch = fl.LiveFlows(s.scratch[:0])
		for _, flow := range s.scratch {
			s.Checkpoint(fl.Members[flow])
		}
		s.checkpoints.Arm(s.cfg.CheckpointEvery)
	})
	s.epoch = sim.NewTimer(fl.Loop, func() {
		s.Epoch()
		s.epoch.Arm(s.churn.Epoch)
	})
	for _, m := range fl.Members {
		if m != nil {
			s.Initial(m)
		}
	}
	return s
}

// EnableChurn arms the seeded arrival/departure/crash schedule (see
// Controller.EnableChurn) under the supervisor's own health policy. Call
// before Start.
func (s *Supervisor) EnableChurn(cc ChurnConfig, ch chaos.Config) {
	s.Controller.EnableChurn(cc, s.cfg, ch)
}

// Start arms the health, checkpoint and churn timers. Idempotent.
func (s *Supervisor) Start() {
	if s.started || s.stopped {
		return
	}
	s.started = true
	s.health.Arm(s.cfg.Interval)
	if s.cfg.CheckpointEvery > 0 {
		s.checkpoints.Arm(s.cfg.CheckpointEvery)
	}
	if s.src != nil {
		s.epoch.Arm(s.churn.Epoch)
	}
}

// Stop disarms the supervisor; pending restarts and crash-kills are
// abandoned. Safe to call at any time, from any loop event, and more
// than once.
func (s *Supervisor) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.health.Stop()
	s.checkpoints.Stop()
	s.epoch.Stop()
}

func (s *Supervisor) Now() time.Duration            { return s.Loop.Now() }
func (s *Supervisor) Host(packet.FlowID) MemberHost { return s.Fleet }

// DeferRestart and DeferKill are the single loop's clock: a loop event at
// the exact instant, dropped (and the flow's reservation released) once
// the supervisor is stopped.
func (s *Supervisor) DeferRestart(flow packet.FlowID, after time.Duration) {
	s.Loop.After(after, func() {
		if s.stopped {
			s.flow(flow).reserved = false
			return
		}
		s.Restart(flow)
	})
}

func (s *Supervisor) DeferKill(flow packet.FlowID, after time.Duration) {
	s.Loop.After(after, func() {
		if !s.stopped {
			s.Kill(flow)
		}
	})
}
