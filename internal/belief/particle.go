package belief

import (
	"math/rand"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/rollout"
)

// Particle is the scalable belief the paper points to as future work
// (§3.2, §5): instead of enumerating every configuration, it carries N
// samples ("particles"). Each update advances every particle with
// *sampled* gate toggles, reweights it by the likelihood of the observed
// acknowledgments, and resamples (systematic resampling) when the
// effective sample size collapses.
//
// Compared to Exact it trades exactness for a cost independent of how
// bushy the fork tree is.
type Particle struct {
	books
	// rng is a single-word SplitMix64 stream rather than *rand.Rand so
	// the filter's entire random state is one serializable word
	// (Snapshot/Restore round-trip it bit-identically); it is seeded
	// once from the caller's source at construction.
	rng       rollout.Rand
	particles []Hypothesis
	compacted []Hypothesis // cache for Support
	dirty     bool

	// lws/prevW are reused per-index result slots.
	lws   []float64
	prevW []float64
	byKey map[uint64]int

	// Resamples counts resampling rounds, for instrumentation.
	Resamples int
}

// NewParticle draws n particles uniformly from the given prior states.
// With n >= len(states) every prior state is included at least once by
// stratified assignment, which keeps the true configuration in the
// initial particle set whenever the prior contains it.
func NewParticle(states []model.State, n int, cfg Config, rng *rand.Rand) *Particle {
	if n <= 0 {
		// Invariant: a zero-particle filter cannot represent anything.
		panic("belief: particle count must be positive")
	}
	bk := newBooks(states, cfg)
	// All randomness — construction draws included — comes from one
	// SplitMix64 stream seeded by the caller's source, so the filter's
	// full random state is a single checkpointable word.
	stream := rollout.RandFromState(rng.Uint64())
	w := 1 / float64(n)
	ps := make([]Hypothesis, n)
	for i := 0; i < n; i++ {
		var src model.State
		if n >= len(states) {
			// Stratified: cycle the prior, then fill the remainder
			// randomly.
			if i < len(states) {
				src = states[i]
			} else {
				src = states[stream.Intn(len(states))]
			}
		} else {
			src = states[stream.Intn(len(states))]
		}
		ps[i] = Hypothesis{S: src.Clone(), W: w}
	}
	return newParticle(bk, ps, stream, 0)
}

func newParticle(bk books, ps []Hypothesis, rng rollout.Rand, resamples int) *Particle {
	n := len(ps)
	return &Particle{
		books:     bk,
		rng:       rng,
		particles: ps,
		dirty:     true,
		lws:       make([]float64, n),
		prevW:     make([]float64, n),
		byKey:     make(map[uint64]int),
		Resamples: resamples,
	}
}

// reseed restores the particle population from the pristine prior at
// time at: stratified over the prior states (every state included once
// while particles remain, like NewParticle), uniform weights.
func (b *Particle) reseed(at time.Duration) {
	n := len(b.particles)
	w := 1 / float64(n)
	for i := 0; i < n; i++ {
		var src *model.State
		if i < len(b.prior) {
			src = &b.prior[i]
		} else {
			src = &b.prior[b.rng.Intn(len(b.prior))]
		}
		s := src.Clone()
		s.Rebase(at)
		b.particles[i] = Hypothesis{S: s, W: w}
	}
}

// NumParticles reports the particle count.
func (b *Particle) NumParticles() int { return len(b.particles) }

// Support implements Belief: particles compacted by state key so the
// planner's cost scales with distinct states, not the particle count.
func (b *Particle) Support() []Hypothesis {
	if b.dirty {
		cp := append(b.compacted[:0], b.particles...)
		cp, _ = compactInto(cp, b.byKey)
		b.compacted = cp
		b.dirty = false
	}
	return b.compacted
}

// Update implements Belief.
func (b *Particle) Update(now time.Duration, acks []packet.Ack) UpdateStats {
	sends := b.begin(now, acks)
	ackBySeq := make(map[int64]time.Duration, len(acks))
	for _, a := range acks {
		ackBySeq[a.Seq] = a.ReceivedAt
	}
	soft := b.cfg.SoftSigma > 0

	var stats UpdateStats
	var total float64
	prevW := b.prevW
	// One parent draw per update seeds every particle's private stream,
	// so the sampled toggles are identical for any worker count.
	streamSeed := int64(b.rng.Uint64())
	b.pool.Run(len(b.particles), func(s *rollout.Scratch, i int) {
		p := &b.particles[i]
		prevW[i] = p.W
		rng := rollout.Stream(streamSeed, i)
		s.Events = advanceSampled(&p.S, now, sends, &rng, s.Events[:0])
		var lw float64
		if soft {
			lw = softLikelihood(s.Events, b.recent, now, p.S.P.LossProb, b.cfg)
		} else {
			var matched int
			lw, matched = likelihood(s.Events, ackBySeq, p.S.P.LossProb, b.cfg)
			if matched < len(ackBySeq) {
				lw = 0
			}
		}
		b.lws[i] = lw
	})
	for i := range b.particles {
		p := &b.particles[i]
		stats.Branches++
		// !(lw > 0) also rejects NaN likelihoods — a poisoned weight
		// must never reach the posterior.
		if !(b.lws[i] > 0) {
			stats.Rejected++
			p.W = 0
			continue
		}
		p.W *= b.lws[i]
		total += p.W
	}
	if !(total > 0) {
		if b.collapse(&stats) {
			// Re-seed the population from the prior at the collapse
			// instant (deterministic given the belief's own rng stream)
			// instead of NaN-ing on the 0/0 normalization below.
			b.reseed(now)
		} else {
			// Relax: keep the advanced particles with their previous
			// weights.
			total = 0
			for i := range b.particles {
				b.particles[i].W = prevW[i]
				total += prevW[i]
			}
			for i := range b.particles {
				b.particles[i].W /= total
			}
		}
	} else {
		for i := range b.particles {
			b.particles[i].W /= total
		}
	}

	// Resample when the effective sample size drops below half. A
	// fresh reseed is uniform (ESS = n), so it never resamples here.
	if ess(b.particles) < float64(len(b.particles))/2 {
		b.systematicResample()
		b.Resamples++
	}

	b.dirty = true
	stats.N = len(b.Support())
	return b.end(now, len(sends), stats)
}

// advanceSampled advances one particle to `until`, drawing gate toggles
// from the particle's private stream at the same discretized
// opportunities AdvanceEnum forks at. Events are appended to evs, which
// is returned (callers pass a reused scratch buffer).
func advanceSampled(s *model.State, until time.Duration, sends []model.Send, rng *rollout.Rand, evs []model.Event) []model.Event {
	si := 0
	for s.SwitchTick > 0 && s.P.MeanSwitch > 0 && s.NextToggle <= until {
		at := s.NextToggle
		hi := si
		for hi < len(sends) && sends[hi].At <= at {
			hi++
		}
		s.Run(at, sends[si:hi], &evs)
		si = hi
		s.NextToggle += s.SwitchTick
		if rng.Float64() < model.ToggleProb(s.SwitchTick, s.P.MeanSwitch) {
			s.Toggle()
		}
	}
	s.Run(until, sends[si:], &evs)
	return evs
}

// ess computes the effective sample size 1/Σw².
func ess(ps []Hypothesis) float64 {
	var sumSq float64
	for _, p := range ps {
		sumSq += p.W * p.W
	}
	if sumSq == 0 {
		return 0
	}
	return 1 / sumSq
}

// systematicResample redraws the particle population with systematic
// (low-variance) resampling and resets weights to uniform.
func (b *Particle) systematicResample() {
	n := len(b.particles)
	out := make([]Hypothesis, 0, n)
	step := 1.0 / float64(n)
	u := b.rng.Float64() * step
	var cum float64
	i := 0
	for j := 0; j < n; j++ {
		target := u + float64(j)*step
		for cum+b.particles[i].W < target && i < n-1 {
			cum += b.particles[i].W
			i++
		}
		out = append(out, Hypothesis{S: b.particles[i].S.Clone(), W: step})
	}
	b.particles = out
}
