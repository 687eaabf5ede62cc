package lifecycle

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"path/filepath"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
	"modelcc/internal/packet"
	"modelcc/internal/sim"
)

// SupervisorConfig tunes the crash-recovery runtime. Zero values take
// the defaults noted on each field (WithDefaults). The sharded runtime
// reads the same health and backoff fields; its checkpoint schedule is
// shard.CheckpointConfig, so CheckpointEvery and Dir do not apply there.
type SupervisorConfig struct {
	// Interval is the health-check period (default 2 s virtual).
	Interval time.Duration
	// CheckpointEvery is the checkpoint period (default 10 s); negative
	// disables checkpointing, which forces every restart cold (or hot
	// when the fleet serves a compiled table).
	CheckpointEvery time.Duration
	// MaxReseeds declares a member failed when its belief re-seeded from
	// the prior at least this many times within one Interval — the
	// posterior keeps collapsing, so the member has lost its model of
	// the network (default 2; non-positive disables the signal).
	MaxReseeds int
	// MaxOverruns declares a member failed when its Guard reports this
	// many consecutive deadline overruns — the planner is wedged
	// (default 8; non-positive disables the signal).
	MaxOverruns int64
	// BackoffBase and BackoffCap bound the restart delay: the k-th
	// consecutive restart of a flow waits min(BackoffBase<<k,
	// BackoffCap). Defaults 500 ms and 16 s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DrainPoll is how often a pending restart re-checks a flow whose
	// predecessor still has packets in flight (default 250 ms); the
	// restart waits for a full drain so the fenced per-flow counters
	// stay unambiguous.
	DrainPoll time.Duration
	// Dir, when set, mirrors every checkpoint to
	// Dir/flow%04d.ckpt (atomic replace per flow).
	Dir string
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
	if c.MaxReseeds == 0 {
		c.MaxReseeds = 2
	}
	if c.MaxOverruns == 0 {
		c.MaxOverruns = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 16 * time.Second
	}
	if c.DrainPoll <= 0 {
		c.DrainPoll = 250 * time.Millisecond
	}
	return c
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

// Event is one entry in the supervisor's deterministic lifecycle log.
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

// Stats counts supervisor activity.
type Stats struct {
	Checkpoints, CheckpointErrors           int
	Failures, Crashes, Departures, Arrivals int
	ColdRestarts, HotRestarts, WarmRestarts int
}

// flowState is the supervisor's per-flow bookkeeping.
type flowState struct {
	lastReseeds int
	lastCkpt    *Checkpoint
	attempts    int
	// reserved marks a flow a pending restart owns; admission skips it.
	reserved bool
	rec      *MemberRecord
}

// Supervisor watches a fleet's members for health failures — belief
// re-seeds and planner Guard overruns — and restarts failed members
// with capped exponential backoff through the hot/warm/cold ladder.
// It lives entirely on the fleet's discrete-event loop: no goroutines,
// and the same seed replays the same lifecycle log bit-identically.
type Supervisor struct {
	FL  *fleet.Fleet
	Cfg SupervisorConfig
	// PriorHash is the model identity every checkpoint is bound to.
	PriorHash uint64
	// Events is the lifecycle log, in virtual-time order.
	Events []Event
	// Records tracks every member generation ever admitted, in
	// admission order (the fleet's initial members first).
	Records []*MemberRecord
	// Stats counts supervisor activity.
	Stats Stats

	flows   []*flowState
	health  *sim.Timer
	ckpt    *sim.Timer
	started bool
	stopped bool
	scratch []packet.FlowID
}

// NewSupervisor builds a supervisor over the fleet's current members.
// Call Start before (or while) the loop runs.
func NewSupervisor(fl *fleet.Fleet, cfg SupervisorConfig) *Supervisor {
	s := &Supervisor{
		FL:        fl,
		Cfg:       cfg.WithDefaults(),
		PriorHash: FleetPriorHash(fl),
	}
	s.health = sim.NewTimer(fl.Loop, s.checkTick)
	s.ckpt = sim.NewTimer(fl.Loop, s.checkpointTick)
	kind := RestartCold
	if fl.Cfg.Table != nil {
		kind = RestartHot
	}
	for i, m := range fl.Members {
		fs := s.flow(i)
		if m == nil {
			continue
		}
		rec := &MemberRecord{M: m, Kind: kind, RetiredAt: -1}
		fs.rec = rec
		fs.lastReseeds = BeliefReseeds(m)
		s.Records = append(s.Records, rec)
	}
	return s
}

// flow returns (extending as needed) the flow's bookkeeping.
func (s *Supervisor) flow(idx int) *flowState {
	for idx >= len(s.flows) {
		s.flows = append(s.flows, &flowState{})
	}
	return s.flows[idx]
}

// Start arms the health and checkpoint timers. Idempotent.
func (s *Supervisor) Start() {
	if s.started || s.stopped {
		return
	}
	s.started = true
	s.health.Arm(s.Cfg.Interval)
	if s.Cfg.CheckpointEvery > 0 {
		s.ckpt.Arm(s.Cfg.CheckpointEvery)
	}
}

// Stop disarms the supervisor; pending restarts are abandoned. Safe to
// call at any time, from any loop event, and more than once.
func (s *Supervisor) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.health.Stop()
	s.ckpt.Stop()
}

// BeliefReseeds reads the belief's lifetime re-seed count, the
// "posterior keeps collapsing" health signal both runtimes' health
// sweeps watch.
func BeliefReseeds(m *fleet.Member) int {
	switch b := m.Sender.Belief.(type) {
	case *belief.Exact:
		return b.Cum.Reseeded
	case *belief.Particle:
		return b.Cum.Reseeded
	}
	return 0
}

// checkTick is one health sweep, in member-index order for determinism.
func (s *Supervisor) checkTick() {
	if s.stopped {
		return
	}
	now := s.FL.Loop.Now()
	s.scratch = s.FL.ActiveFlows(s.scratch[:0])
	for _, flow := range s.scratch {
		i := int(flow)
		m := s.FL.Members[i]
		if m == nil {
			// fail() below can retire a flow mid-sweep only for the flow
			// being visited, but stay defensive against callback retires.
			continue
		}
		fs := s.flow(i)
		if fs.rec == nil || fs.rec.M != m {
			// A member admitted behind the supervisor's back (direct
			// fleet.Admit): adopt it rather than misreading its
			// predecessor's counters.
			s.adopt(i, m)
			fs = s.flows[i]
		}
		reseeds := BeliefReseeds(m)
		failed := s.Cfg.MaxReseeds > 0 && reseeds-fs.lastReseeds >= s.Cfg.MaxReseeds
		if g := m.Sender.Guard; !failed && g != nil && s.Cfg.MaxOverruns > 0 {
			failed = g.ConsecutiveOverruns >= s.Cfg.MaxOverruns
		}
		if failed {
			s.fail(packet.FlowID(i))
			continue
		}
		fs.lastReseeds = reseeds
		// A restarted member that stayed healthy for two full sweeps
		// has recovered; its next failure starts backoff from scratch.
		if fs.attempts > 0 && now-m.AdmittedAt >= 2*s.Cfg.Interval {
			fs.attempts = 0
		}
	}
	s.health.Arm(s.Cfg.Interval)
}

// adopt registers an externally admitted member.
func (s *Supervisor) adopt(idx int, m *fleet.Member) {
	fs := s.flow(idx)
	kind := RestartCold
	if s.FL.Cfg.Table != nil {
		kind = RestartHot
	}
	rec := &MemberRecord{M: m, Cause: CauseArrival, Kind: kind, RetiredAt: -1}
	fs.rec = rec
	fs.lastCkpt = nil
	fs.attempts = 0
	fs.lastReseeds = BeliefReseeds(m)
	s.Records = append(s.Records, rec)
}

// checkpointTick captures every live member, in member-index order.
func (s *Supervisor) checkpointTick() {
	if s.stopped {
		return
	}
	s.scratch = s.FL.ActiveFlows(s.scratch[:0])
	for _, flow := range s.scratch {
		i := int(flow)
		m := s.FL.Members[i]
		if m == nil {
			continue
		}
		c, err := Capture(m, s.PriorHash)
		if err != nil {
			s.Stats.CheckpointErrors++
			continue
		}
		s.flow(i).lastCkpt = c
		s.Stats.Checkpoints++
		if s.Cfg.Dir != "" {
			path := filepath.Join(s.Cfg.Dir, fmt.Sprintf("flow%04d.ckpt", i))
			if err := c.WriteFile(path); err != nil {
				s.Stats.CheckpointErrors++
			}
		}
	}
	s.ckpt.Arm(s.Cfg.CheckpointEvery)
}

// retire tears the flow's member down and closes its record.
func (s *Supervisor) retire(flow packet.FlowID) *fleet.Member {
	m := s.FL.Retire(flow)
	if m == nil {
		return nil
	}
	if fs := s.flow(int(flow)); fs.rec != nil && fs.rec.M == m {
		fs.rec.RetiredAt = s.FL.Loop.Now()
	}
	return m
}

// fail declares the flow's member failed: graceful teardown (in-flight
// packets drain through the loop), then a backoff-delayed restart.
func (s *Supervisor) fail(flow packet.FlowID) {
	m := s.retire(flow)
	if m == nil {
		return
	}
	s.Stats.Failures++
	s.Events = append(s.Events, Event{At: s.FL.Loop.Now(), Kind: EventFail, Flow: flow, Gen: m.Gen})
	s.scheduleRestart(flow)
}

// Kill crash-kills the flow's member abruptly (no fresh checkpoint, no
// drain courtesy beyond what the network itself provides) and schedules
// a supervised restart. No-op when the flow has no live member.
func (s *Supervisor) Kill(flow packet.FlowID) {
	m := s.retire(flow)
	if m == nil {
		return
	}
	s.Stats.Crashes++
	s.Events = append(s.Events, Event{At: s.FL.Loop.Now(), Kind: EventCrash, Flow: flow, Gen: m.Gen})
	s.scheduleRestart(flow)
}

// Depart retires the flow's member permanently: no restart, and the
// flow (once drained) becomes available to future arrivals. The stale
// checkpoint is discarded — a later arrival is a different member and
// must never inherit this one's belief.
func (s *Supervisor) Depart(flow packet.FlowID) {
	m := s.retire(flow)
	if m == nil {
		return
	}
	fs := s.flow(int(flow))
	fs.lastCkpt = nil
	fs.attempts = 0
	s.Stats.Departures++
	s.Events = append(s.Events, Event{At: s.FL.Loop.Now(), Kind: EventDepart, Flow: flow, Gen: m.Gen})
}

// Admit starts a brand-new member on the lowest safe flow (vacant,
// drained, not reserved by a pending restart) and returns it.
func (s *Supervisor) Admit() *fleet.Member {
	flow := s.allocFlow()
	gen := s.FL.NextGen(flow)
	m := s.FL.Admit(flow, s.FL.StaggerOffset(flow, gen))
	fs := s.flow(int(flow))
	kind := RestartCold
	if s.FL.Cfg.Table != nil {
		kind = RestartHot
	}
	rec := &MemberRecord{M: m, Cause: CauseArrival, Kind: kind, RetiredAt: -1}
	fs.rec = rec
	fs.lastCkpt = nil
	fs.attempts = 0
	fs.lastReseeds = BeliefReseeds(m)
	s.Records = append(s.Records, rec)
	s.Stats.Arrivals++
	s.Events = append(s.Events, Event{At: s.FL.Loop.Now(), Kind: EventAdmit, Flow: flow, Gen: m.Gen})
	return m
}

// PendingRestarts counts flows reserved by a scheduled restart —
// casualties draining in-flight packets or waiting out backoff. Their
// slots are spoken for: admission must treat them as occupied or
// arrivals plus restarts would overshoot the population cap.
func (s *Supervisor) PendingRestarts() int {
	n := 0
	for _, fs := range s.flows {
		if fs.reserved {
			n++
		}
	}
	return n
}

// allocFlow is Fleet.AllocFlow minus flows reserved by pending
// restarts.
func (s *Supervisor) allocFlow() packet.FlowID {
	for i := range s.FL.Members {
		if s.FL.Members[i] == nil && !s.flow(i).reserved && s.FL.InFlight(packet.FlowID(i)) == 0 {
			return packet.FlowID(i)
		}
	}
	return packet.FlowID(len(s.FL.Members))
}

// scheduleRestart reserves the flow and arms the backoff-delayed
// restart attempt.
func (s *Supervisor) scheduleRestart(flow packet.FlowID) {
	fs := s.flow(int(flow))
	shift := fs.attempts
	if shift > 30 {
		shift = 30
	}
	delay := s.Cfg.BackoffBase << shift
	if delay > s.Cfg.BackoffCap || delay <= 0 {
		delay = s.Cfg.BackoffCap
	}
	fs.attempts++
	fs.reserved = true
	s.FL.Loop.After(delay, func() { s.tryRestart(flow) })
}

// tryRestart performs (or re-defers) a pending restart: it waits for
// the predecessor's in-flight packets to drain, then admits the new
// generation on the highest available ladder rung.
func (s *Supervisor) tryRestart(flow packet.FlowID) {
	fs := s.flow(int(flow))
	if s.stopped {
		fs.reserved = false
		return
	}
	if int(flow) < len(s.FL.Members) && s.FL.Members[flow] != nil {
		// The slot was re-occupied despite the reservation (external
		// Admit); the restart is moot.
		fs.reserved = false
		return
	}
	if s.FL.InFlight(flow) > 0 {
		// Predecessor still draining: keep the reservation, poll again.
		s.FL.Loop.After(s.Cfg.DrainPoll, func() { s.tryRestart(flow) })
		return
	}
	gen := s.FL.NextGen(flow)
	offset := s.FL.StaggerOffset(flow, gen)
	var (
		m    *fleet.Member
		kind RestartKind
	)
	if fs.lastCkpt != nil {
		snd, err := RestoreSender(s.FL, fs.lastCkpt, s.PriorHash)
		if err == nil {
			m = s.FL.AdmitSender(flow, snd, offset)
			RestoreGuard(m, fs.lastCkpt)
			kind = RestartWarm
			s.Stats.WarmRestarts++
		} else {
			// A checkpoint this supervisor captured should always
			// restore; count the anomaly and fall through cold.
			s.Stats.CheckpointErrors++
		}
	}
	if m == nil {
		m = s.FL.Admit(flow, offset)
		if s.FL.Cfg.Table != nil {
			kind = RestartHot
			s.Stats.HotRestarts++
		} else {
			kind = RestartCold
			s.Stats.ColdRestarts++
		}
	}
	fs.reserved = false
	fs.lastReseeds = BeliefReseeds(m)
	rec := &MemberRecord{M: m, Cause: CauseRestart, Kind: kind, RetiredAt: -1}
	fs.rec = rec
	s.Records = append(s.Records, rec)
	s.Events = append(s.Events, Event{
		At: s.FL.Loop.Now(), Kind: EventRestart, Flow: flow, Gen: m.Gen,
		Restart: kind, Attempt: fs.attempts,
	})
}
