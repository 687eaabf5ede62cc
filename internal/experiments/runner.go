// Package experiments contains the harnesses that regenerate every
// figure and result in the paper's evaluation (§4), plus the extension
// experiments README.md lists under "Layout" and "Running things". The cmd/ tools and the repository's
// benchmarks are thin wrappers over these functions, so "the experiment"
// exists in exactly one place.
package experiments

import (
	"math/rand"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/stats"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// ISenderConfig describes one ISENDER-vs-ground-truth run.
type ISenderConfig struct {
	// Actual is the true network (defaults to the paper's Fig2Actual).
	Actual model.Params
	// PingerOnStart is the true gate's initial state.
	PingerOnStart bool
	// Gate is how the true gate behaves; the paper's Figure 3 uses
	// GateSquareWave with a 100 s half period against a belief that
	// assumes GateMemoryless.
	Gate model.GateSchedule
	// HalfPeriod is the square wave's half period.
	HalfPeriod time.Duration
	// Prior is the sender's prior (defaults to the paper's Fig3Prior).
	Prior model.Prior
	// Utility is the function the sender maximizes; Alpha is the
	// paper's α.
	Utility utility.Config
	// Plan overrides planner defaults when non-zero.
	Plan planner.Config
	// Belief selects the inference engine.
	UseParticle bool
	// Particles is the particle count when UseParticle is set.
	Particles int
	// BeliefCfg overrides belief defaults when non-zero.
	BeliefCfg belief.Config
	// Duration is the virtual run length (default 300 s, the paper's).
	Duration time.Duration
	// Seed drives all ground-truth randomness.
	Seed int64
	// Workers shards belief updates and planner rollouts across a
	// worker pool: 0 means GOMAXPROCS, 1 forces the serial path. Any
	// value produces bit-identical results (see belief.Config.Workers).
	Workers int
}

func (c ISenderConfig) withDefaults() ISenderConfig {
	if c.Actual == (model.Params{}) {
		c.Actual = model.Fig2Actual()
	}
	if c.Prior.LinkRate.N == 0 && c.Prior.LinkRate.Lo == 0 {
		c.Prior = model.Fig3Prior()
	}
	if c.Utility.Kappa == 0 {
		c.Utility = utility.Default()
		c.Utility.Alpha = 1
	}
	if c.Duration == 0 {
		c.Duration = 300 * time.Second
	}
	if c.HalfPeriod == 0 {
		c.HalfPeriod = 100 * time.Second
	}
	c.Plan.Util = c.Utility
	if c.Workers != 0 {
		c.Plan.Workers = c.Workers
		c.BeliefCfg.Workers = c.Workers
	}
	return c
}

// ISenderResult is everything the figures need from one run.
type ISenderResult struct {
	// AckedSeq is the acknowledged sequence number over time — the
	// y-axis of Figure 3.
	AckedSeq stats.Series
	// SentSeq is the sent sequence number over time.
	SentSeq stats.Series
	// PPingerOn tracks the posterior probability that the gate is
	// connected — the sender's "timidity" signal.
	PPingerOn stats.Series
	// SupportSize tracks the belief's hypothesis count over time.
	SupportSize stats.Series

	// Sent and Acked are final counts for the sender's own flow.
	Sent, Acked int64
	// OwnBufferDrops / CrossBufferDrops count tail drops at the shared
	// buffer; the paper's claim is that for α >= 1 the ISENDER never
	// causes any.
	OwnBufferDrops, CrossBufferDrops int
	// CrossDelivered counts cross packets that survived to their
	// receiver.
	CrossDelivered int
	// OwnThroughput is the sender's achieved goodput in bits/second
	// over the whole run.
	OwnThroughput units.BitRate
	// Utility is the realized delivery utility of the sender's own
	// flow: Σ bits·exp(-delay/κ) over acknowledged packets, the same
	// accounting the fleet fairness sweeps aggregate per flow.
	Utility float64
	// UpdateCum aggregates belief work across the run.
	UpdateCum belief.UpdateStats
	// Wakes counts sender wakeups.
	Wakes int64
}

// RunISender executes one ISENDER run against a ground-truth network and
// gathers the figure series: the solo loop with no fault tap between
// sender and truth.
func RunISender(cfg ISenderConfig) ISenderResult {
	return runSolo(cfg, nil)
}

// runSolo is the one truth↔sender driver, shared by RunISender (tap nil)
// and RunChaos (tap set). The coupling is exact: the truth is advanced
// in steps bounded by its own next transition, the sender's next wakeup
// and the tap's next delayed acknowledgment, so no acknowledgment or
// timer is ever skipped over.
func runSolo(cfg ISenderConfig, tap *faultTap) ISenderResult {
	cfg = cfg.withDefaults()
	truth := model.NewTruth(cfg.Actual, cfg.PingerOnStart, cfg.Gate, cfg.HalfPeriod, rand.New(rand.NewSource(cfg.Seed)))

	states, _ := cfg.Prior.Enumerate()
	var b belief.Belief
	if cfg.UseParticle {
		n := cfg.Particles
		if n <= 0 {
			n = 4 * len(states)
		}
		b = belief.NewParticle(states, n, cfg.BeliefCfg, rand.New(rand.NewSource(cfg.Seed+1)))
	} else {
		b = belief.NewExact(states, cfg.BeliefCfg)
	}
	sender := core.NewSender(b, cfg.Plan)

	var res ISenderResult
	res.AckedSeq.Name = "acked"
	res.SentSeq.Name = "sent"
	res.PPingerOn.Name = "P(pinger on)"
	res.SupportSize.Name = "hypotheses"

	var now, wakeAt time.Duration
	var pendingInject []model.Send

	// wake runs the sender at now; its sends reach the truth's next advance.
	wake := func(acks []packet.Ack) {
		act := sender.Wake(now, acks)
		for _, snd := range act.Sends {
			res.SentSeq.Add(snd.At, float64(snd.Seq))
		}
		if tap != nil {
			act.Sends = tap.sends(act.Sends)
		}
		pendingInject = append(pendingInject, act.Sends...)
		wakeAt = act.WakeAt
		e := sender.Estimates()
		res.PPingerOn.Add(now, e.PPingerOn)
		res.SupportSize.Add(now, float64(e.N))
	}
	wake(nil)

	for now < cfg.Duration {
		next := cfg.Duration
		if wakeAt > now && wakeAt < next {
			next = wakeAt
		}
		if tn := truth.NextTransition(); tn > now && tn < next {
			next = tn
		}
		if tap != nil && len(tap.inFlight) > 0 && tap.inFlight[0].at > now && tap.inFlight[0].at < next {
			next = tap.inFlight[0].at
		}
		evs := truth.AdvanceTo(next, pendingInject)
		pendingInject = pendingInject[:0]
		now = next

		var acks []packet.Ack
		for _, ev := range evs {
			if ev.Kind != model.OwnDelivered {
				continue
			}
			res.AckedSeq.Add(ev.At, float64(ev.Seq))
			u := float64(ev.Bits) * cfg.Utility.Discount(ev.Delay)
			res.Utility += u
			acks = append(acks, packet.Ack{Flow: packet.FlowSelf, Seq: ev.Seq, ReceivedAt: ev.At})
			if tap != nil {
				tap.deliveries = append(tap.deliveries, TimedUtil{At: ev.At, Util: u})
			}
		}
		if tap != nil {
			acks = tap.acks(now, acks)
		}

		if len(acks) > 0 || now >= wakeAt {
			wake(acks)
			if wakeAt <= now {
				wakeAt = now + 10*time.Millisecond
			}
		}
	}

	res.Sent = sender.Sent
	res.Acked = sender.Acked
	res.Wakes = sender.Wakes
	res.OwnBufferDrops = truth.OwnBufferDropN
	res.CrossBufferDrops = truth.CrossBufferDropN
	res.CrossDelivered = truth.CrossDeliveredN
	if cfg.Duration > 0 {
		res.OwnThroughput = units.BitRate(float64(res.Acked) * float64(cfg.Actual.PktBits()) / cfg.Duration.Seconds())
	}
	res.UpdateCum = b.Lifetime()
	return res
}
