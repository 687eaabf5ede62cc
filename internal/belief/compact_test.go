package belief

import (
	"testing"
	"time"

	"modelcc/internal/model"
)

// TestCompactMergesWithinOneBucket: survivors that share one KeyHead
// bucket — one header and one last packet, the packets before it
// permuted, and duplicates that differ only in enqueue stamps and a dead
// queue prefix — keep every distinct state and merge each duplicate
// into the first state equal to it, weights summed in hypothesis order:
// the string-keyed reference, refCompact, survivor for survivor and bit
// for bit. The index is reused across calls, wider then narrower, so a
// stale bucket or chain link from an earlier call would merge or lose a
// hypothesis.
func TestCompactMergesWithinOneBucket(t *testing.T) {
	base := model.Initial(model.Fig2Actual(), true)
	pkts := []model.QPkt{
		{Own: true, Seq: 1, Bits: 12000},
		{Seq: -1, Bits: 8400},
		{Own: true, Seq: 2, Bits: 6000},
	}
	last := model.QPkt{Own: true, Seq: 3, Bits: 12000}
	var distinct []model.State
	for _, perm := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		s := base.Clone()
		s.Queue, s.QHead, s.QueueBits = nil, 0, 0
		for i, k := range perm {
			q := pkts[k]
			q.EnqueuedAt = time.Duration(i) * time.Millisecond
			s.Queue = append(s.Queue, q)
			s.QueueBits += q.Bits
		}
		s.Queue = append(s.Queue, last)
		s.QueueBits += last.Bits
		distinct = append(distinct, s)
	}
	for i := range distinct {
		if distinct[i].KeyHead() != distinct[0].KeyHead() {
			t.Fatalf("permutation %d has its own bucket hash; the test needs one bucket", i)
		}
		for j := range i {
			if distinct[i].SameKey(&distinct[j]) {
				t.Fatalf("permutations %d and %d are SameKey", j, i)
			}
		}
	}
	// dup is a copy of distinct[i] that differs only where Key does not
	// look: its enqueue stamps and a dead queue prefix.
	dup := func(i int) model.State {
		s := distinct[i].Clone()
		for k := range s.Queue {
			s.Queue[k].EnqueuedAt += time.Duration(k+1) * time.Second
		}
		s.Queue = append([]model.QPkt{{Seq: 99, Bits: 1}}, s.Queue...)
		s.QHead = 1
		return s
	}
	order := []model.State{
		distinct[0], distinct[1], dup(0), distinct[2], dup(1), dup(0),
		distinct[3], distinct[4], dup(4), dup(2), distinct[5], dup(5), dup(0),
	}
	build := func(states []model.State) []Hypothesis {
		hyps := make([]Hypothesis, len(states))
		for i := range states {
			hyps[i] = Hypothesis{S: states[i].Clone(), W: 1 / float64(3+i)}
		}
		return hyps
	}

	var ix keyIndex
	for round, states := range [][]model.State{order, append(order, order...), order[:5], order} {
		hyps := build(states)
		want, wantMerged := refCompact(build(states))
		got, merged := compactInto(hyps, &ix)
		if merged != wantMerged || len(got) != len(want) {
			t.Fatalf("round %d: %d kept, %d merged; want %d kept, %d merged", round, len(got), merged, len(want), wantMerged)
		}
		for i := range got {
			if got[i].S.Key() != want[i].S.Key() || got[i].W != want[i].W {
				t.Fatalf("round %d survivor %d: weight %v, want %v, or another state", round, i, got[i].W, want[i].W)
			}
		}
	}
}
