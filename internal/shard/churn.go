package shard

import (
	"sort"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
)

// Barrier-aligned lifecycle: the sharded analog of
// lifecycle.Supervisor + lifecycle.Admission. Every action — epoch
// draws, crash-kills, health checks, restarts — executes at coupling-
// window barriers, in ascending flow order, with due times snapped up
// to the Δ grid. Because Δ, the draw stream, the membership history
// and the barrier grid are all independent of the shard count, the
// lifecycle log and replay hash are bit-identical for every K. They
// are NOT identical to the single-loop Supervisor's (which kills
// mid-window at exact drawn instants). Every generation the runtime
// admits — initial, arrival, restart, failover restore — enters through
// one ladder (see ladder): warm from the flow's latest barrier
// checkpoint when EnableCheckpoints is armed, hot when a compiled table
// serves, cold from the prior — the same rungs the Supervisor chooses
// from. Checkpoint availability is driven purely by virtual time, so
// the rung chosen is itself K-invariant.

type pendingKill struct {
	at   time.Duration
	flow packet.FlowID
}

type pendingRestart struct {
	due  time.Duration
	flow packet.FlowID
}

// flowState is the coordinator's per-flow lifecycle bookkeeping.
type flowState struct {
	// rec indexes Records at the flow's live generation; -1 when vacant.
	rec int
	// attempts counts consecutive restarts (the backoff exponent).
	attempts int
	// reserved marks a flow a pending restart owns; admission skips it.
	reserved bool
	// lastReseeds is the health sweep's reseed baseline.
	lastReseeds int
}

type churnState struct {
	cfg lifecycle.ChurnConfig
	sup lifecycle.SupervisorConfig
	src *chaos.Source

	nextEpoch  time.Duration
	nextHealth time.Duration
	kills      []pendingKill
	restarts   []pendingRestart
}

// flow returns (extending as needed) the flow's bookkeeping.
func (sf *Fleet) flow(flow packet.FlowID) *flowState {
	for int(flow) >= len(sf.flows) {
		sf.flows = append(sf.flows, flowState{rec: -1})
	}
	return &sf.flows[flow]
}

// nextDue reports the earliest lifecycle instant, bounding the
// coordinator's idle skip so no barrier with due work is jumped over.
func (c *churnState) nextDue() (time.Duration, bool) {
	best, ok := c.nextEpoch, true
	if c.nextHealth < best {
		best = c.nextHealth
	}
	for _, k := range c.kills {
		if k.at < best {
			best = k.at
		}
	}
	for _, r := range c.restarts {
		if r.due < best {
			best = r.due
		}
	}
	return best, ok
}

// EnableChurn arms the barrier-aligned churn lifecycle: the health
// sweep, backoff restarts and the seeded arrival/departure/crash
// schedule. Call before Run. Zero-valued cc and sup fields take
// lifecycle.ChurnConfig's and lifecycle.SupervisorConfig's defaults;
// sup's CheckpointEvery and Dir are not read (see EnableCheckpoints).
func (sf *Fleet) EnableChurn(cc lifecycle.ChurnConfig, sup lifecycle.SupervisorConfig, ch chaos.Config) {
	cc = cc.WithDefaults(sf.Cfg.N)
	sup = sup.WithDefaults()
	sf.churn = &churnState{
		cfg:        cc,
		sup:        sup,
		src:        ch.Sub("churn").Source(),
		nextEpoch:  cc.Epoch,
		nextHealth: sup.Interval,
	}
}

// lifecycleBarrier executes every due lifecycle action at barrier time
// sf.now, in a fixed order: crash-kills, restarts, health checks,
// epoch draws.
func (sf *Fleet) lifecycleBarrier() {
	c := sf.churn
	b := sf.now

	// 1. Crash-kills whose drawn instant has been reached, in (at,
	// flow) order.
	if len(c.kills) > 0 {
		sort.Slice(c.kills, func(i, j int) bool {
			if c.kills[i].at != c.kills[j].at {
				return c.kills[i].at < c.kills[j].at
			}
			return c.kills[i].flow < c.kills[j].flow
		})
		rest := c.kills[:0]
		for _, k := range c.kills {
			if k.at > b {
				rest = append(rest, k)
				continue
			}
			sf.kill(k.flow)
		}
		c.kills = rest
	}

	// 2. Due restarts, in (due, flow) order. A restart whose flow is
	// still draining re-queues at the drain-poll interval.
	if len(c.restarts) > 0 {
		sort.Slice(c.restarts, func(i, j int) bool {
			if c.restarts[i].due != c.restarts[j].due {
				return c.restarts[i].due < c.restarts[j].due
			}
			return c.restarts[i].flow < c.restarts[j].flow
		})
		rest := c.restarts[:0]
		for _, r := range c.restarts {
			if r.due > b {
				rest = append(rest, r)
				continue
			}
			if again, ok := sf.tryRestart(r.flow); ok {
				rest = append(rest, pendingRestart{due: again, flow: r.flow})
			}
		}
		c.restarts = rest
	}

	// 3. Health sweep, in flow order.
	if b >= c.nextHealth {
		for i := 0; i < sf.slots; i++ {
			flow := packet.FlowID(i)
			m := sf.MemberAt(flow)
			if m == nil {
				continue
			}
			fs := sf.flow(flow)
			reseeds := lifecycle.BeliefReseeds(m)
			failed := c.sup.MaxReseeds > 0 && reseeds-fs.lastReseeds >= c.sup.MaxReseeds
			if g := m.Sender.Guard; !failed && g != nil && c.sup.MaxOverruns > 0 {
				failed = g.ConsecutiveOverruns >= c.sup.MaxOverruns
			}
			if failed {
				sf.casualty(flow, lifecycle.EventFail)
				continue
			}
			fs.lastReseeds = reseeds
			if fs.attempts > 0 && b-m.AdmittedAt >= 2*c.sup.Interval {
				fs.attempts = 0
			}
		}
		c.nextHealth = b + c.sup.Interval
	}

	// 4. Epoch draws: one uniform per live member in flow order, then
	// one per open slot — the same draw discipline as the single-loop
	// Admission, so the schedule is a pure function of the seed and
	// the (K-invariant) population history.
	if b >= c.nextEpoch {
		live := sf.Live()
		leaving, departing := 0, 0
		for i := 0; i < sf.slots; i++ {
			flow := packet.FlowID(i)
			if sf.MemberAt(flow) == nil {
				continue
			}
			u := c.src.Float64()
			canLeave := live-leaving > c.cfg.MinLive
			switch {
			case u < c.cfg.CrashProb:
				if !canLeave {
					continue
				}
				frac := c.src.Float64()
				at := b + time.Duration(frac*float64(c.cfg.Epoch))
				c.kills = append(c.kills, pendingKill{at: at, flow: flow})
				leaving++
			case u < c.cfg.CrashProb+c.cfg.DepartProb:
				if !canLeave {
					continue
				}
				sf.depart(flow)
				leaving++
				departing++
			}
		}
		// Open capacity excludes members a restart will bring back:
		// this epoch's crashes are still live here (not counted
		// departing), and earlier casualties awaiting drain or backoff
		// hold their slot through the reservation count. Counting either
		// as open would let arrivals plus restarts push the population
		// past MaxLive.
		occupied := (live - departing) + sf.reservedCount()
		for open := c.cfg.MaxLive - occupied; open > 0; open-- {
			if c.src.Float64() < c.cfg.ArriveProb {
				sf.admitNew()
			}
		}
		c.nextEpoch = b + c.cfg.Epoch
	}
}

// reservedCount counts flows reserved by a scheduled restart —
// casualties draining in-flight packets or waiting out backoff.
func (sf *Fleet) reservedCount() int {
	n := 0
	for i := range sf.flows {
		if sf.flows[i].reserved {
			n++
		}
	}
	return n
}

// kill crash-kills the flow's member abruptly (no fresh checkpoint, no
// drain courtesy beyond what the network itself provides) and schedules
// its restart. No-op when the flow has no live member.
func (sf *Fleet) kill(flow packet.FlowID) {
	sf.casualty(flow, lifecycle.EventCrash)
}

// casualty retires the flow's member as crashed or failed and queues
// its backoff-delayed restart.
func (sf *Fleet) casualty(flow packet.FlowID, kind lifecycle.EventKind) {
	m := sf.retire(sf.owner(flow), flow)
	if m == nil {
		return
	}
	if kind == lifecycle.EventFail {
		sf.Stats.Failures++
	} else {
		sf.Stats.Crashes++
	}
	sf.Events = append(sf.Events, lifecycle.Event{At: sf.now, Kind: kind, Flow: flow, Gen: m.Gen})

	c := sf.churn
	fs := sf.flow(flow)
	shift := fs.attempts
	if shift > 30 {
		shift = 30
	}
	delay := c.sup.BackoffBase << shift
	if delay > c.sup.BackoffCap || delay <= 0 {
		delay = c.sup.BackoffCap
	}
	fs.attempts++
	fs.reserved = true
	c.restarts = append(c.restarts, pendingRestart{due: sf.now + delay, flow: flow})
}

// depart retires the flow's member permanently: no restart, and the
// flow (once drained) becomes available to future arrivals.
func (sf *Fleet) depart(flow packet.FlowID) {
	m := sf.retire(sf.owner(flow), flow)
	if m == nil {
		return
	}
	sf.flow(flow).attempts = 0
	if sf.ckpt != nil {
		// A departure is permanent: its checkpoint must never warm a
		// future unrelated occupant of the recycled flow ID.
		delete(sf.ckpt.last, flow)
	}
	sf.Stats.Departures++
	sf.Events = append(sf.Events, lifecycle.Event{At: sf.now, Kind: lifecycle.EventDepart, Flow: flow, Gen: m.Gen})
}

// tryRestart performs or re-defers one due restart. It returns
// (againAt, true) when the flow is still draining and the attempt must
// re-queue. No fencing is needed on this path: the drain wait
// guarantees nothing of the predecessor is in flight when the successor
// attaches.
func (sf *Fleet) tryRestart(flow packet.FlowID) (time.Duration, bool) {
	fs := sf.flow(flow)
	if sf.MemberAt(flow) != nil {
		fs.reserved = false
		return 0, false
	}
	if sf.InFlight(flow) > 0 {
		return sf.now + sf.churn.sup.DrainPoll, true
	}
	gen := sf.owner(flow).NextGen(flow)
	offset := fleet.StaggerOffsetFor(sf.Cfg.Stagger, flow, gen)
	sf.restart(flow, offset, lifecycle.CauseRestart, fs.attempts)
	fs.reserved = false
	return 0, false
}

// admitNew starts a brand-new member on the lowest safe flow (vacant,
// drained, not reserved by a pending restart) and returns it.
func (sf *Fleet) admitNew() *fleet.Member {
	flow := packet.FlowID(sf.slots)
	for i := 0; i < sf.slots; i++ {
		f := packet.FlowID(i)
		if sf.MemberAt(f) == nil && !sf.flow(f).reserved && sf.InFlight(f) == 0 {
			flow = f
			break
		}
	}
	gen := sf.owner(flow).NextGen(flow)
	// nil: an arrival is a different member and never inherits a
	// predecessor's checkpoint.
	m := sf.admit(flow, nil, fleet.StaggerOffsetFor(sf.Cfg.Stagger, flow, gen), lifecycle.CauseArrival)
	sf.flow(flow).attempts = 0
	sf.Stats.Arrivals++
	sf.Events = append(sf.Events, lifecycle.Event{At: sf.now, Kind: lifecycle.EventAdmit, Flow: flow, Gen: m.Gen})
	return m
}

// ReplayHash digests per-flow delivery totals, drops and the lifecycle
// event log; equal hashes mean bit-identical runs, at any shard count.
func (sf *Fleet) ReplayHash() uint64 {
	delivered := make([]int, sf.slots)
	for i := range delivered {
		delivered[i] = sf.DeliveredTotal(packet.FlowID(i))
	}
	return lifecycle.ReplayHash(sf.Live(), sf.Drops(), sf.OrphanAcks, delivered, sf.Events)
}
