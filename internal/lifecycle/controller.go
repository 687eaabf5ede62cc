package lifecycle

import (
	"fmt"
	"path/filepath"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/core"
	"modelcc/internal/fleet"
	"modelcc/internal/packet"
)

// ChurnConfig describes a deterministic churn schedule: per-epoch
// departure/crash/arrival probabilities drawn from a seeded chaos
// stream. Zero values take the noted defaults (WithDefaults).
type ChurnConfig struct {
	// Epoch is the schedule's decision period (default 10 s virtual).
	Epoch time.Duration
	// DepartProb is each live member's per-epoch probability of leaving
	// permanently. The three probabilities default to 0.04 / 0.06 / 0.5
	// only when all three are zero, so one of them can be zero beside a
	// non-zero other.
	DepartProb float64
	// CrashProb is each live member's per-epoch probability of being
	// crash-killed at a uniformly drawn instant inside the epoch; the
	// Controller then restarts it.
	CrashProb float64
	// ArriveProb is, per open slot below MaxLive, the per-epoch
	// probability a new member arrives.
	ArriveProb float64
	// MinLive floors the live population: departures and crashes are
	// suppressed when they would drop below it (default N/4, at least 1).
	MinLive int
	// MaxLive caps the live population (default: the fleet's configured
	// N).
	MaxLive int
}

// WithDefaults returns the schedule with every zero field replaced by
// its documented default, for a fleet configured at n members. It is
// the one place the defaults are written: both runtimes, the churn
// experiment and fleetsim's flags read them from here.
func (c ChurnConfig) WithDefaults(n int) ChurnConfig {
	if c.Epoch <= 0 {
		c.Epoch = 10 * time.Second
	}
	if c.DepartProb == 0 && c.CrashProb == 0 && c.ArriveProb == 0 {
		c.DepartProb, c.CrashProb, c.ArriveProb = 0.04, 0.06, 0.5
	}
	if c.MinLive <= 0 {
		c.MinLive = n / 4
		if c.MinLive < 1 {
			c.MinLive = 1
		}
	}
	if c.MaxLive <= 0 {
		c.MaxLive = n
	}
	return c
}

// Runtime is what a Controller needs from the fleet runtime it governs:
// membership primitives and a clock. The membership half — LiveFlows,
// Slots, MemberAt, InFlight, NextGen, Retire, Attach — is fleet.Roster's,
// written once and embedded by both runtimes; each runtime adds only its
// clock (Now, DeferRestart, DeferKill), Host and PriorHash: the single
// loop through the Supervisor, the barrier-aligned shard coordinator
// (shard.Fleet) itself, whose Attach also clamps the start offset off the
// barrier. What to do is the Controller's, written once, and only when it
// runs differs.
type Runtime interface {
	// Now is the current virtual instant.
	Now() time.Duration
	// LiveFlows appends the flows with a live member, ascending, to buf.
	LiveFlows(buf []packet.FlowID) []packet.FlowID
	// Slots is the flow-space size: flows ever allocated are
	// 0..Slots()-1.
	Slots() int
	// MemberAt is the flow's live member, nil when vacant.
	MemberAt(flow packet.FlowID) *fleet.Member
	// InFlight counts the flow's packets, every generation's, still
	// inside the bottleneck.
	InFlight(flow packet.FlowID) int64
	// NextGen is the generation the flow's next member will receive.
	NextGen(flow packet.FlowID) uint32
	// Host is the surface a checkpoint of the flow restores against, and
	// PriorHash the model identity checkpoints are bound to.
	Host(flow packet.FlowID) MemberHost
	PriorHash() uint64
	// Retire tears the flow's member down (nil when vacant); its
	// in-flight packets drain through the bottleneck.
	Retire(flow packet.FlowID) *fleet.Member
	// Attach occupies the vacant, drained flow with snd (a cold sender
	// from the prior when nil), fences the new generation's counters at
	// the bottleneck's current readings, and starts it offset after Now.
	Attach(flow packet.FlowID, snd *core.Sender, offset time.Duration) *fleet.Member
	// DeferRestart and DeferKill run Controller.Restart and
	// Controller.Kill on the flow after the given delay, on the runtime's
	// clock.
	DeferRestart(flow packet.FlowID, after time.Duration)
	DeferKill(flow packet.FlowID, after time.Duration)
}

// flowState is the lifecycle's per-flow bookkeeping.
type flowState struct {
	// rec indexes Records at the flow's live generation; -1 when vacant.
	rec int
	// attempts counts consecutive restarts (the backoff exponent).
	attempts int
	// reserved marks a flow a pending restart owns; admission skips it.
	reserved bool
	// lastReseeds is the health sweep's reseed baseline.
	lastReseeds int
	// ckpt is the flow's latest checkpoint.
	ckpt *Checkpoint
}

// Controller is the member lifecycle policy, written once for both
// runtimes: the health verdict (re-seed and Guard-overrun streaks),
// capped exponential backoff and the drain wait, the churn schedule's
// draws, flow allocation, the hot/warm/cold restart ladder, checkpoint
// capture, and the log every run is judged by (Events, Records, Stats).
// Its runtime decides only when Health, Epoch, Restart and Kill run and
// what to Checkpoint: the Supervisor at exact instants on the single
// loop, shard.Fleet at coupling-window barriers. Each embeds one.
type Controller struct {
	// Events is the lifecycle log, in virtual-time order.
	Events []Event
	// Records holds one entry per member generation the runtime ever
	// admitted — initial members, arrivals, restarts, failover restores —
	// in admission order.
	Records []MemberRecord
	// Stats counts lifecycle activity.
	Stats Stats

	rt      Runtime
	cfg     SupervisorConfig
	churn   ChurnConfig
	src     *chaos.Source
	n       int
	stagger time.Duration
	hot     bool
	flows   []flowState
	scratch []packet.FlowID
}

// Bind attaches the controller to its runtime, a fleet resolved to fc.
// Each runtime calls it once, at construction.
func (c *Controller) Bind(rt Runtime, fc fleet.Config) {
	c.rt, c.n, c.stagger, c.hot = rt, fc.N, fc.Stagger, fc.Table != nil
}

// EnableChurn arms the churn schedule cc, drawn from ch.Sub("churn") so
// runs that also inject packet-level chaos keep the two streams
// independent, under the health and backoff policy sup. Zero fields take
// ChurnConfig's and SupervisorConfig's defaults.
func (c *Controller) EnableChurn(cc ChurnConfig, sup SupervisorConfig, ch chaos.Config) {
	c.cfg, c.churn, c.src = sup.WithDefaults(), cc.WithDefaults(c.n), ch.Sub("churn").Source()
}

// flow returns (extending as needed) the flow's bookkeeping.
func (c *Controller) flow(flow packet.FlowID) *flowState {
	for int(flow) >= len(c.flows) {
		c.flows = append(c.flows, flowState{rec: -1})
	}
	return &c.flows[flow]
}

// Record is the flow's live generation's record, nil when vacant.
func (c *Controller) Record(flow packet.FlowID) *MemberRecord {
	if int(flow) >= len(c.flows) || c.flows[flow].rec < 0 {
		return nil
	}
	return &c.Records[c.flows[flow].rec]
}

// LatestCheckpoint is the flow's most recent checkpoint, nil when none
// exists (or checkpointing is off).
func (c *Controller) LatestCheckpoint(flow packet.FlowID) *Checkpoint {
	if int(flow) >= len(c.flows) {
		return nil
	}
	return c.flows[flow].ckpt
}

// freshKind is the rung a generation with no checkpoint starts on.
func (c *Controller) freshKind() RestartKind {
	if c.hot {
		return RestartHot
	}
	return RestartCold
}

// open starts the record of m, the flow's new generation.
func (c *Controller) open(m *fleet.Member, cause Cause, kind RestartKind) {
	fs := c.flow(m.Flow)
	fs.rec = len(c.Records)
	// The health sweep must not blame the new generation for its
	// predecessor's reseeds.
	fs.lastReseeds = BeliefReseeds(m)
	c.Records = append(c.Records, MemberRecord{M: m, Cause: cause, Kind: kind, RetiredAt: -1})
}

// close ends the record of the flow's generation, which the runtime has
// just retired.
func (c *Controller) close(flow packet.FlowID) {
	fs := c.flow(flow)
	c.Records[fs.rec].RetiredAt = c.rt.Now()
	fs.rec = -1
}

func (c *Controller) log(kind EventKind, flow packet.FlowID, gen uint32) {
	c.Events = append(c.Events, Event{At: c.rt.Now(), Kind: kind, Flow: flow, Gen: gen})
}

// Initial opens the record of one of the runtime's starting members.
func (c *Controller) Initial(m *fleet.Member) { c.open(m, CauseInitial, c.freshKind()) }

// Health is one health sweep over the live members in ascending flow
// order: a member whose belief re-seeded MaxReseeds times since the last
// sweep, or whose Guard reports MaxOverruns consecutive overruns, is
// declared failed and queued for restart; one that stayed healthy two
// full intervals after a restart has recovered, and its next failure
// starts the backoff from scratch.
func (c *Controller) Health() {
	now := c.rt.Now()
	c.scratch = c.rt.LiveFlows(c.scratch[:0])
	for _, flow := range c.scratch {
		m := c.rt.MemberAt(flow)
		fs := c.flow(flow)
		reseeds := BeliefReseeds(m)
		failed := c.cfg.MaxReseeds > 0 && reseeds-fs.lastReseeds >= c.cfg.MaxReseeds
		if g := m.Sender.Guard; !failed && g != nil && c.cfg.MaxOverruns > 0 {
			failed = g.ConsecutiveOverruns >= c.cfg.MaxOverruns
		}
		if failed {
			c.casualty(flow, EventFail)
			continue
		}
		fs.lastReseeds = reseeds
		if fs.attempts > 0 && now-m.AdmittedAt >= 2*c.cfg.Interval {
			fs.attempts = 0
		}
	}
}

// Epoch makes one round of churn decisions. Draw order is fixed — one
// uniform per live member in ascending flow order, then one per open
// slot — so the schedule is a pure function of the seed and the
// population history.
func (c *Controller) Epoch() {
	cc := c.churn
	c.scratch = c.rt.LiveFlows(c.scratch[:0])
	live := len(c.scratch)
	leaving := 0   // MinLive guard: crashes and departures both shrink the population
	departing := 0 // only departures free capacity — a crashed slot stays reserved for its restart
	for _, flow := range c.scratch {
		u := c.src.Float64()
		canLeave := live-leaving > cc.MinLive
		switch {
		case u < cc.CrashProb:
			if !canLeave {
				continue
			}
			// Crash at a drawn fraction of the period. The kill targets
			// whatever occupies the flow when it fires — crashes are
			// abrupt by definition.
			c.rt.DeferKill(flow, time.Duration(c.src.Float64()*float64(cc.Epoch)))
			leaving++
		case u < cc.CrashProb+cc.DepartProb:
			if !canLeave {
				continue
			}
			c.Depart(flow)
			leaving++
			departing++
		}
	}
	// Open capacity excludes members a restart will bring back: this
	// epoch's crashes are still live here (not counted departing), and
	// earlier casualties awaiting drain or backoff hold their slot through
	// the reservation. Counting either as open would let arrivals plus
	// restarts push the population past MaxLive.
	occupied := live - departing
	for _, fs := range c.flows {
		if fs.reserved {
			occupied++
		}
	}
	for open := cc.MaxLive - occupied; open > 0; open-- {
		if c.src.Float64() < cc.ArriveProb {
			c.Admit()
		}
	}
}

// retire tears the flow's member down and closes its record.
func (c *Controller) retire(flow packet.FlowID) *fleet.Member {
	m := c.rt.Retire(flow)
	if m != nil {
		c.close(flow)
	}
	return m
}

// Kill crash-kills the flow's member abruptly (no fresh checkpoint, no
// drain courtesy beyond what the network itself provides) and queues
// its restart. No-op when the flow has no live member.
func (c *Controller) Kill(flow packet.FlowID) { c.casualty(flow, EventCrash) }

// casualty retires the flow's member as crashed or failed and reserves
// the flow for its backoff-delayed restart.
func (c *Controller) casualty(flow packet.FlowID, kind EventKind) {
	m := c.retire(flow)
	if m == nil {
		return
	}
	if kind == EventFail {
		c.Stats.Failures++
	} else {
		c.Stats.Crashes++
	}
	c.log(kind, flow, m.Gen)
	fs := c.flow(flow)
	delay := c.cfg.Backoff(fs.attempts)
	fs.attempts++
	fs.reserved = true
	c.rt.DeferRestart(flow, delay)
}

// Depart retires the flow's member permanently: no restart, and the
// flow (once drained) becomes available to future arrivals. Its
// checkpoint is discarded — a later arrival is a different member and
// must never inherit this one's belief.
func (c *Controller) Depart(flow packet.FlowID) {
	m := c.retire(flow)
	if m == nil {
		return
	}
	fs := c.flow(flow)
	fs.ckpt, fs.attempts = nil, 0
	c.Stats.Departures++
	c.log(EventDepart, flow, m.Gen)
}

// Admit starts a brand-new member on the lowest safe flow (vacant,
// drained, not reserved by a pending restart) and returns it.
func (c *Controller) Admit() *fleet.Member {
	flow := packet.FlowID(c.rt.Slots())
	for i := range flow {
		if c.rt.MemberAt(i) == nil && !c.flow(i).reserved && c.rt.InFlight(i) == 0 {
			flow = i
			break
		}
	}
	fs := c.flow(flow)
	fs.ckpt, fs.attempts = nil, 0
	m := c.rt.Attach(flow, nil, fleet.StaggerOffsetFor(c.stagger, flow, c.rt.NextGen(flow)))
	c.open(m, CauseArrival, c.freshKind())
	c.Stats.Arrivals++
	c.log(EventAdmit, flow, m.Gen)
	return m
}

// Restart performs or re-defers the flow's pending restart: it waits,
// polling every DrainPoll, until the predecessor's in-flight packets
// have drained — so the fenced per-flow counters stay unambiguous — and
// then brings the next generation up on the ladder.
func (c *Controller) Restart(flow packet.FlowID) {
	fs := c.flow(flow)
	if c.rt.MemberAt(flow) != nil {
		// The flow was re-occupied despite the reservation; the restart
		// is moot.
		fs.reserved = false
		return
	}
	if c.rt.InFlight(flow) > 0 {
		c.rt.DeferRestart(flow, c.cfg.DrainPoll)
		return
	}
	offset := fleet.StaggerOffsetFor(c.stagger, flow, c.rt.NextGen(flow))
	c.restart(flow, CauseRestart, fs.attempts, offset)
	fs.reserved = false
}

// Evicted restores the flow of m, a member the runtime lost with its
// host and has already retired, at once — no backoff, no drain wait,
// started a nanosecond from now — logging the loss as a crash. It
// returns the rung the restore landed on.
func (c *Controller) Evicted(m *fleet.Member) RestartKind {
	c.close(m.Flow)
	c.log(EventCrash, m.Flow, m.Gen)
	return c.restart(m.Flow, CauseFailover, 0, time.Nanosecond)
}

// restart occupies the flow with its next generation on the highest
// rung of the ladder available — warm from the flow's latest
// checkpoint, hot when a compiled table serves, cold from the prior —
// and counts and logs it by that rung, which it returns. This is the
// one place a rung is chosen.
func (c *Controller) restart(flow packet.FlowID, cause Cause, attempt int, offset time.Duration) RestartKind {
	fs := c.flow(flow)
	kind := c.freshKind()
	var m *fleet.Member
	if ck := fs.ckpt; ck != nil {
		if snd, err := RestoreSender(c.rt.Host(flow), ck, c.rt.PriorHash()); err != nil {
			// A checkpoint this controller captured should always
			// restore; count the anomaly, discard it, fall through.
			c.Stats.CheckpointErrors++
			fs.ckpt = nil
		} else {
			m = c.rt.Attach(flow, snd, offset)
			RestoreGuard(m, ck)
			kind = RestartWarm
		}
	}
	if m == nil {
		m = c.rt.Attach(flow, nil, offset)
	}
	switch kind {
	case RestartWarm:
		c.Stats.WarmRestarts++
	case RestartHot:
		c.Stats.HotRestarts++
	default:
		c.Stats.ColdRestarts++
	}
	c.open(m, cause, kind)
	c.Events = append(c.Events, Event{
		At: c.rt.Now(), Kind: EventRestart, Flow: flow, Gen: m.Gen,
		Restart: kind, Attempt: attempt,
	})
	return kind
}

// Checkpoint captures m as its flow's latest checkpoint, bound to the
// runtime's prior hash, and mirrors it to dir (see SupervisorConfig.Dir)
// when dir is set.
func (c *Controller) Checkpoint(m *fleet.Member, dir string) {
	ck, err := Capture(m, c.rt.PriorHash())
	if err != nil {
		c.Stats.CheckpointErrors++
		return
	}
	c.flow(m.Flow).ckpt = ck
	c.Stats.Checkpoints++
	if dir != "" {
		if err := ck.WriteFile(filepath.Join(dir, fmt.Sprintf("flow%04d.ckpt", m.Flow))); err != nil {
			c.Stats.CheckpointErrors++
		}
	}
}
