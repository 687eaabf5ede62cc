package belief

import (
	"errors"
	"sort"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/rollout"
)

// Snapshot is a belief's complete serializable decision state: enough
// to rebuild an Exact or Particle belief that resumes bit-identically —
// same posterior, same pending sends, same soft-matching ack memory,
// same RNG stream position. internal/lifecycle encodes Snapshots into
// versioned member checkpoints; the prior states themselves are NOT
// part of the snapshot (they are re-derived from the configuration, and
// the checkpoint header binds their identity via policy.HashPrior).
type Snapshot struct {
	// Particle distinguishes the two belief kinds; a snapshot restores
	// only into the kind that produced it.
	Particle bool
	// Now is the time of the last update.
	Now time.Duration
	// Hyps is the weighted support: the posterior for Exact, the raw
	// (uncompacted) particle population for Particle.
	Hyps []Hypothesis
	// Pending are the recorded-but-unfolded sends, oldest first.
	Pending []model.Send
	// Recent is the soft-matching ack memory, ascending by Seq (sorted
	// so snapshots of the same belief are canonical).
	Recent []AckMemo
	// Cum is the lifetime update-stats accumulator.
	Cum UpdateStats
	// RNG is the particle stream's state word (Particle only).
	RNG uint64
	// Resamples is the particle resampling counter (Particle only).
	Resamples int
}

// AckMemo is one remembered acknowledgment of the soft-matching window.
type AckMemo struct {
	Seq int64
	At  time.Duration
}

// memosFromMap flattens the recent-ack map in ascending Seq order.
func memosFromMap(recent map[int64]time.Duration) []AckMemo {
	if len(recent) == 0 {
		return nil
	}
	out := make([]AckMemo, 0, len(recent))
	for seq, at := range recent {
		out = append(out, AckMemo{Seq: seq, At: at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// validate rejects snapshots no belief could have produced, so a
// decoded-from-disk snapshot can never build a silently wrong belief.
func (sn *Snapshot) validate() error {
	if len(sn.Hyps) == 0 {
		return errors.New("belief: snapshot has no hypotheses")
	}
	var total float64
	for _, h := range sn.Hyps {
		if !(h.W >= 0) { // rejects NaN and negatives
			return errors.New("belief: snapshot hypothesis weight is negative or NaN")
		}
		total += h.W
	}
	if !(total > 0) {
		return errors.New("belief: snapshot weights sum to zero")
	}
	for i := 1; i < len(sn.Pending); i++ {
		if sn.Pending[i].At < sn.Pending[i-1].At {
			return errors.New("belief: snapshot pending sends out of order")
		}
	}
	return nil
}

// snapshot captures the books with deep copies of hyps. The snapshot owns
// every state it holds; it stays valid across later updates.
func (b *books) snapshot(hyps []Hypothesis) Snapshot {
	return Snapshot{
		Now:     b.now,
		Hyps:    cloneHyps(hyps),
		Pending: append([]model.Send(nil), b.pending...),
		Recent:  memosFromMap(b.recent),
		Cum:     b.Cum,
	}
}

func cloneHyps(hyps []Hypothesis) []Hypothesis {
	out := make([]Hypothesis, len(hyps))
	for i, h := range hyps {
		out[i] = Hypothesis{S: h.S.Clone(), W: h.W}
	}
	return out
}

// Snapshot implements Belief.
func (b *Exact) Snapshot() Snapshot { return b.snapshot(b.hyps) }

// Snapshot implements Belief: the raw particle population and the
// private RNG stream position, so the restored filter's future toggle
// draws and resampling offsets match the original's.
func (b *Particle) Snapshot() Snapshot {
	sn := b.snapshot(b.particles)
	sn.Particle, sn.RNG, sn.Resamples = true, b.rng.State(), b.Resamples
	return sn
}

// Restore rebuilds the belief a snapshot was taken of — a Particle when
// sn.Particle is set, an Exact otherwise — over the given prior states
// (read only when cfg.Recover re-seeds after a collapse). The restored
// belief resumes bit-identically: the same Update sequence yields the same
// posteriors, and a particle filter's RNG stream continues from the
// snapshot's word. The snapshot's states are cloned; the caller may keep
// it.
func Restore(states []model.State, cfg Config, sn Snapshot) (Belief, error) {
	if len(states) == 0 {
		return nil, errors.New("belief: empty prior")
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	bk := newBooks(states, cfg)
	bk.now, bk.Cum = sn.Now, sn.Cum
	bk.pending = append([]model.Send(nil), sn.Pending...)
	for _, m := range sn.Recent {
		bk.recent[m.Seq] = m.At
	}
	if sn.Particle {
		return newParticle(bk, cloneHyps(sn.Hyps), rollout.RandFromState(sn.RNG), sn.Resamples), nil
	}
	return newExact(bk, cloneHyps(sn.Hyps)), nil
}
