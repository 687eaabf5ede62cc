package belief

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"modelcc/internal/model"
)

// Snapshot is a belief's complete serializable decision state: enough
// to rebuild an Exact belief that resumes bit-identically — same
// posterior, same pending sends, same soft-matching ack memory, same
// counters. internal/lifecycle encodes Snapshots into versioned member
// checkpoints; the prior states themselves are NOT part of the snapshot
// (they are re-derived from the configuration, and the checkpoint
// header binds their identity via policy.HashPrior).
type Snapshot struct {
	// Now is the time of the last update.
	Now time.Duration
	// Hyps is the weighted posterior.
	Hyps []Hypothesis
	// Pending are the recorded-but-unfolded sends, oldest first.
	Pending []model.Send
	// Recent is the soft-matching ack memory, ascending by Seq (sorted
	// so snapshots of the same belief are canonical).
	Recent []AckMemo
	// Cum is the lifetime update-stats accumulator.
	Cum UpdateStats
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
// decoded-from-disk snapshot can never build a silently wrong belief,
// nor one whose first Update panics inside a pool worker.
func (sn *Snapshot) validate() error {
	if len(sn.Hyps) == 0 {
		return errors.New("belief: snapshot has no hypotheses")
	}
	var total float64
	for _, h := range sn.Hyps {
		if !(h.W >= 0) || math.IsInf(h.W, 1) { // rejects NaN, negatives and +Inf
			return errors.New("belief: snapshot hypothesis weight is negative, NaN or infinite")
		}
		if h.S.Now > sn.Now {
			return fmt.Errorf("belief: snapshot hypothesis at %v is ahead of the belief's clock %v", h.S.Now, sn.Now)
		}
		total += h.W
	}
	if !(total > 0) {
		return errors.New("belief: snapshot weights sum to zero")
	}
	if math.IsInf(total, 1) {
		return errors.New("belief: snapshot weights overflow their sum")
	}
	for i, s := range sn.Pending {
		if s.At < sn.Now {
			return fmt.Errorf("belief: snapshot pending send at %v precedes the belief's clock %v", s.At, sn.Now)
		}
		if i > 0 && s.At < sn.Pending[i-1].At {
			return errors.New("belief: snapshot pending sends out of order")
		}
	}
	return nil
}

// Snapshot implements Belief. The snapshot owns deep copies of every
// state it holds; it stays valid across later updates.
func (b *Exact) Snapshot() Snapshot {
	return Snapshot{
		Now:     b.now,
		Hyps:    cloneHyps(b.hyps),
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

// Restore rebuilds the belief a snapshot was taken of over the given
// prior states (read only when cfg.Recover re-seeds after a collapse).
// The restored belief resumes bit-identically: the same Update sequence
// yields the same posteriors. The snapshot's states are cloned; the
// caller may keep it.
func Restore(states []model.State, cfg Config, sn Snapshot) (*Exact, error) {
	if len(states) == 0 {
		return nil, errors.New("belief: empty prior")
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	b := newExact(states, cfg)
	b.now, b.Cum, b.hyps = sn.Now, sn.Cum, cloneHyps(sn.Hyps)
	b.pending = append([]model.Send(nil), sn.Pending...)
	for _, m := range sn.Recent {
		b.recent[m.Seq] = m.At
	}
	return b, nil
}
