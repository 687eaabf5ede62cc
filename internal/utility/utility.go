// Package utility implements the paper's instantaneous utility function
// (§3.3): the value of a packet is its size in bits discounted by how far
// in the future it is received, plus a weighted term for the cross
// traffic's deliveries and an optional penalty for the latency the sender
// induces on that cross traffic.
//
// The paper writes the discount as "packet size in bits divided by e^τ,
// where τ is the number of milliseconds in the future when the packet
// will be received". Read literally (a 1/e decay per millisecond), every
// delivery on a 12 kbit/s link — where a single packet takes 1000 ms to
// serialize — is worth e^-1000 ≈ 0: all strategies tie at zero and the
// argmax is meaningless. The companion approximation the paper gives
// (∑ e^-t/(1000r) ≈ 1000r, "nearly linearly rewarding throughput") shows
// the intended shape: a gentle exponential whose timescale makes the
// reward almost linear in throughput at realistic delays. We therefore
// expose the timescale as a parameter κ — U = bits · exp(-τ/κ) — with a
// default of one second, which preserves every qualitative property the
// paper relies on (earlier is better; multi-second queueing delay is
// heavily punished; accumulated utility tracks throughput). Setting
// Kappa to one millisecond recovers the paper's literal formula.
// BenchmarkUtilityKappa (bench_test.go) is the ablation over κ.
package utility

import (
	"math"
	"time"

	"modelcc/internal/model"
)

// Config parameterizes the utility function.
type Config struct {
	// Alpha is the paper's α: the relative value of cross-traffic bits
	// compared with the sender's own. α < 1 prioritizes self (the paper
	// shows this floods out the cross traffic); α = 1 is bit-neutral;
	// α > 1 is deferential.
	Alpha float64
	// Kappa is the discount timescale: a packet delivered τ after the
	// decision instant is worth bits·exp(-τ/Kappa).
	Kappa time.Duration
	// CrossLatencyPenalty, if positive, subtracts
	// penalty·bits·delaySeconds for every cross delivery — the §3.3
	// option of penalizing latency experienced by delay-sensitive cross
	// traffic, which makes the sender drain the queue before using it.
	CrossLatencyPenalty float64
}

// Default returns the configuration used by the Figure 3 experiments (α
// is then varied per run). Kappa is 60 s: long against the experiment's
// queueing delays, so accumulated utility is nearly linear in throughput
// — which is what makes the paper's α=1 accounting exact (a caused cross
// drop costs α times what a delivered own packet gains) — while still
// strictly preferring earlier delivery.
func Default() Config {
	return Config{Alpha: 1, Kappa: 60 * time.Second}
}

// Discount returns exp(-τ/κ) for a delivery τ in the future; τ <= 0
// returns 1 (already delivered — no further discounting).
func (c Config) Discount(tau time.Duration) float64 {
	if tau <= 0 {
		return 1
	}
	k := c.Kappa
	if k <= 0 {
		k = time.Second
	}
	return math.Exp(-tau.Seconds() / k.Seconds())
}

// OfPredicted accumulates the expected utility of predicted (pre-LOSS)
// events relative to decision time t0, for a hypothesis with last-mile
// loss probability p:
//
//   - an own delivery is worth bits·(1-p)·discount;
//   - a cross delivery is worth α·bits·(1-p)·discount, minus the
//     optional latency penalty on its queueing delay;
//   - drops contribute nothing (their cost is the value that never
//     accrues).
//
// The loss expectation replaces per-packet loss forking during planning.
// LOSS is last-mile, so whether a packet survives it changes no queue and
// no later delivery time, and utility is linear in delivered bits: the
// expectation over loss outcomes of a rollout's utility is the sum of
// bits·(1−p)·discount, exactly, and so is every difference the argmax
// compares. Without the latency penalty (which loss does not scale) that
// is (1−p) times the same sum at p = 0, so the planner rolls a hypothesis
// at p = 0, whatever its p, and weighs (1−p) in afterwards, in its reduce:
// hypotheses that differ only in p share one rollout.
func (c Config) OfPredicted(evs []model.Event, t0 time.Duration, p float64) float64 {
	var u float64
	survive := 1 - p
	for _, ev := range evs {
		switch ev.Kind {
		case model.OwnDelivered:
			u += float64(ev.Bits) * survive * c.Discount(ev.At-t0)
		case model.CrossDelivered:
			u += c.Alpha * float64(ev.Bits) * survive * c.Discount(ev.At-t0)
			if c.CrossLatencyPenalty > 0 {
				u -= c.CrossLatencyPenalty * float64(ev.Bits) * ev.Delay.Seconds()
			}
		}
	}
	return u
}

// Start points acc at a new rollout under this utility: deliveries valued
// relative to decision time t0 for a hypothesis with last-mile loss
// probability p, step factors from steps (see model.Accum.Reset for who
// may share one). The planner passes p only under a latency penalty, and
// 0 otherwise (see OfPredicted).
func (c Config) Start(acc *model.Accum, t0 time.Duration, p float64, steps *model.StepTable) {
	k := c.Kappa
	if k <= 0 {
		k = time.Second
	}
	acc.Reset(c.Alpha, 1-p, c.CrossLatencyPenalty, t0, k, steps)
}

// Meter accumulates OfPredicted-style utility across the segments of one
// rollout recorded as event lists: a model.Accum — which holds the
// arithmetic, the multiplicatively carried discount included — with a
// step table of its own. A rollout that does not need its events skips
// the lists and hands the Accum to State.RunAccum instead (the planner
// does, with one table for all the rollouts on a pool); the two agree
// bit for bit.
//
// A Meter is single-rollout state: call Reset before each rollout and
// Add with each segment's events, in time order.
type Meter struct {
	model.Accum
	steps model.StepTable
}

// Reset points the meter at a new rollout: decision time t0, hypothesis
// loss probability p, and the meter's utility parameters from c.
func (m *Meter) Reset(c Config, t0 time.Duration, p float64) {
	c.Start(&m.Accum, t0, p, &m.steps)
}

// Add accumulates the utility of one segment's events and returns the
// segment's contribution.
func (m *Meter) Add(evs []model.Event) float64 {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case model.OwnDelivered:
			m.Deliver(true, ev.Bits, ev.At, ev.Delay)
		case model.CrossDelivered:
			m.Deliver(false, ev.Bits, ev.At, ev.Delay)
		}
	}
	return m.Take()
}

// OfActual accumulates the realized utility of ground-truth (post-LOSS)
// events relative to t0: Own/CrossDelivered events have already survived
// the loss element, and losses contribute nothing. Experiments report
// this as the achieved utility.
func (c Config) OfActual(evs []model.Event, t0 time.Duration) float64 {
	var u float64
	for _, ev := range evs {
		switch ev.Kind {
		case model.OwnDelivered:
			u += float64(ev.Bits) * c.Discount(ev.At-t0)
		case model.CrossDelivered:
			u += c.Alpha * float64(ev.Bits) * c.Discount(ev.At-t0)
			if c.CrossLatencyPenalty > 0 {
				u -= c.CrossLatencyPenalty * float64(ev.Bits) * ev.Delay.Seconds()
			}
		}
	}
	return u
}
