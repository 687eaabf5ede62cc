package planner

import (
	"cmp"
	"slices"
	"sync/atomic"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
)

// Wake is one wakeup's belief as the planner reads it: the belief's view
// and the instant every decision of the wake plans from. A wake decides
// several times on one belief at one instant (core.Sender.Wake decides
// after every packet it sends), so what depends on nothing else is paid
// once per wake, when a decision first needs it: the fingerprint's
// support half, kept under the last quanta asked for, and the top-K
// members and their units, on the pool (decideArena.begin). A Wake is
// valid as long as its view: Reset it after every Update. Reuse is keyed
// by the wake alone, a fresh number per Reset, never by the belief's
// storage or contents, which an Update rewrites in place.
type Wake struct {
	view belief.View
	now  time.Duration
	id   uint64
	// print is the fingerprint's support half under quanta (tq, wq).
	print   memoKey
	tq      time.Duration
	wq      float64
	printed bool
}

// wakeIDs numbers every Reset of every Wake.
var wakeIDs atomic.Uint64

// Reset starts a wake on view v at instant now.
func (w *Wake) Reset(v belief.View, now time.Duration) {
	*w = Wake{view: v, now: now, id: wakeIDs.Add(1)}
}

// NewWake returns a wake Reset on belief.Wrap(sup) at now.
func NewWake(sup []belief.Hypothesis, now time.Duration) *Wake {
	w := &Wake{}
	w.Reset(belief.Wrap(sup), now)
	return w
}

// View is the wake's belief, valid as long as the belief's View.
func (w *Wake) View() belief.View { return w.view }

// Now is the instant every decision of the wake plans from.
func (w *Wake) Now() time.Duration { return w.now }

// support is the view expanded, for the Guard's two rungs that read one:
// a bare CompiledPolicy.Probe and a budgeted decision, which copies it.
func (w *Wake) support() []belief.Hypothesis { return w.view.Support() }

// Fingerprint is Fingerprint of the wake's support at its instant with the
// pending sends. The support half is printed on the first call under
// quanta (tq, wq) and kept for the wake's later calls under the same
// quanta; only the pending half is hashed per call.
func (w *Wake) Fingerprint(pending []model.Send, tq time.Duration, wq float64) (fp, verify uint64) {
	if !w.printed || w.tq != tq || w.wq != wq {
		w.print, w.tq, w.wq, w.printed = supportPrint(w.view, w.now, tq, wq), tq, wq, true
	}
	return w.print.withPending(pending, w.now, tq)
}

// topMember is a member a plan reads: its weight, renormalized over the
// K, times its survival 1−p without a penalty (what reduce weighs by).
type topMember struct {
	w    float64
	unit int32
}

// unit is what one rollout rolls, and its rollout-key hash: class cls's
// state under the record of its first member, whose LossProb only a
// penalty reads. next chains a class's units under one (index+1; 0 none).
type unit struct {
	s         *model.State
	p         *model.Record
	key       memoKey
	cls, next int32
}

// begin takes the top-K members of wake w — heaviest first when the
// support is wider than k, else in support order — renormalized in that
// order, and the units they name: a class each, or a class and a loss
// probability under a cross-latency penalty, unless it last did for w.
func (ar *decideArena) begin(w *Wake, k int, penalty bool) {
	if ar.wake == w.id && ar.maxHyps == k && ar.penalty == penalty {
		return
	}
	ar.wake, ar.maxHyps, ar.penalty = w.id, k, penalty
	v := w.view
	n := v.Len()
	ws, idx := ar.ws[:0], ar.idx[:0]
	for i := range n {
		ws, idx = append(ws, v.Member(i).W), append(idx, int32(i))
	}
	if n > k {
		// pdqsort, as sort.Slice on a copy of the support runs it: the same
		// members make the cut, ties included, in the same order.
		slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(ws[b], ws[a]) })
		idx = idx[:k]
	}
	ar.ws, ar.idx = ws, idx
	var total float64
	for _, i := range idx {
		total += ws[i]
	}
	if len(ar.unitOf) < n { // a view has no more classes than members
		ar.unitOf = make([]int32, n)
	}
	ar.top, ar.units = ar.top[:0], ar.units[:0]
	for _, i := range idx {
		m := v.Member(int(i))
		wt := m.W
		if total > 0 {
			wt /= total
		}
		if !penalty {
			wt *= 1 - m.P.LossProb
		}
		u := ar.unitOf[m.Class]
		for penalty && u > 0 && ar.units[u-1].p.LossProb != m.P.LossProb {
			u = ar.units[u-1].next
		}
		if u == 0 {
			ar.units = append(ar.units, unit{s: m.S, p: m.P, cls: int32(m.Class), next: ar.unitOf[m.Class]})
			u = int32(len(ar.units))
			ar.unitOf[m.Class] = u
		}
		ar.top = append(ar.top, topMember{w: wt, unit: u - 1})
	}
	for i := range ar.units {
		u := &ar.units[i]
		s := *u.s
		s.P = u.p
		ar.words = s.AppendRolloutKey(ar.words[:0], w.now, penalty)
		u.key, ar.unitOf[u.cls] = hypKey(ar.words), 0
	}
}
