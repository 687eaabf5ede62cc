package belief

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"modelcc/internal/model"
)

// Snapshot is a belief's complete decision state: enough to rebuild an
// Exact belief that resumes bit-identically — same posterior, same
// pending sends, same soft-matching ack memory, same counters.
// internal/lifecycle keeps Snapshots in its in-memory member checkpoints;
// the prior states themselves are NOT part of the snapshot: they are
// re-derived from the configuration, and Restore refuses a snapshot
// whose hypotheses are not grid points of the prior it is given.
type Snapshot struct {
	// Now is the time of the last update.
	Now time.Duration
	// Hyps is the weighted posterior.
	Hyps []Hypothesis
	// Pending are the recorded-but-unfolded sends, oldest first.
	Pending []model.Send
	// Recent is the soft-matching ack memory: receive instants by Seq.
	Recent map[int64]time.Duration
	// Cum is the lifetime update-stats accumulator.
	Cum UpdateStats
}

// validate rejects snapshots no belief could have produced, so an edited
// or mismatched snapshot can never build a silently wrong belief, nor one
// whose first Update panics.
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
// state of Support; it stays valid across later updates.
func (b *Exact) Snapshot() Snapshot {
	hyps := slices.Clone(b.Support())
	for i := range hyps {
		hyps[i].S = hyps[i].S.Clone()
	}
	return Snapshot{
		Now:     b.now,
		Hyps:    hyps,
		Pending: append([]model.Send(nil), b.pending...),
		Recent:  maps.Clone(b.recent),
		Cum:     b.Cum,
	}
}

// Restore rebuilds the belief a snapshot was taken of over the given
// prior states, which cfg.Recover re-seeds from after a collapse. Every
// hypothesis must name a grid point of that prior (its ParamsID) and
// carry that point's parameters; it is re-pointed at the prior's shared
// record, so a restored belief holds one record per grid point as a fresh
// one does. Equal states become one class again, and the lifetime
// counters' class count, which a snapshot does not carry, is recounted
// once an update has run: no two classes hold equal states, so it is a
// function of the support. The restored belief resumes bit-identically:
// the same Update sequence yields the same posteriors. The snapshot's
// queues are copied; the caller may keep it.
func Restore(states []model.State, cfg Config, sn Snapshot) (*Exact, error) {
	if len(states) == 0 {
		return nil, errors.New("belief: empty prior")
	}
	if err := sn.validate(); err != nil {
		return nil, err
	}
	grid := make(map[int32]int, len(states))
	for i := range states {
		if _, ok := grid[states[i].ParamsID]; !ok {
			grid[states[i].ParamsID] = i
		}
	}
	hyps := slices.Clone(sn.Hyps)
	at := make([]int, len(hyps))
	for i := range hyps {
		s := &hyps[i].S
		k, ok := grid[s.ParamsID]
		if !ok {
			return nil, fmt.Errorf("belief: snapshot hypothesis names grid point %d, which the prior does not have", s.ParamsID)
		}
		if s.P.Params != states[k].P.Params {
			return nil, fmt.Errorf("belief: snapshot hypothesis's parameters differ from the prior's grid point %d", s.ParamsID)
		}
		s.P, at[i] = states[k].P, k
	}
	b := newExact(states, cfg)
	b.load(hyps, func(i int) int32 { return int32(at[i]) })
	b.now, b.Cum = sn.Now, sn.Cum
	if b.Cum.N > 0 { // an update has run: Classes is its count
		b.Cum.Classes = b.nc
	}
	b.pending = append([]model.Send(nil), sn.Pending...)
	maps.Copy(b.recent, sn.Recent)
	return b, nil
}
