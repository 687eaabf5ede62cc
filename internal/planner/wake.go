package planner

import (
	"slices"
	"sync/atomic"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
)

// Wake is one wakeup's belief as the planner reads it: the support and
// the instant every decision of the wake plans from. A wake decides
// several times on one belief at one instant (core.Sender.Wake decides
// again after every packet it sends), so what depends on nothing else is
// paid for once per wake, when a decision first needs it: the
// fingerprint's support half, here, and the top-K copy of the support and
// each hypothesis's rollout-key hash on the pool (decideArena.begin).
//
// A Wake is valid until the belief's next Update — Support's own contract
// — so Reset it after every Update. Reuse is keyed by the wake alone:
// every Reset draws a fresh number, and neither the support's storage nor
// its contents are compared, since an Update rewrites both in place.
type Wake struct {
	sup []belief.Hypothesis
	now time.Duration
	id  uint64
	// print is the fingerprint's support half under quanta (tq, wq), once
	// printed.
	print   memoKey
	tq      time.Duration
	wq      float64
	printed bool
}

// wakeIDs numbers every Reset of every Wake.
var wakeIDs atomic.Uint64

// Reset starts a wake on support sup at instant now.
func (w *Wake) Reset(sup []belief.Hypothesis, now time.Duration) {
	*w = Wake{sup: sup, now: now, id: wakeIDs.Add(1)}
}

// NewWake returns a wake Reset on sup at now.
func NewWake(sup []belief.Hypothesis, now time.Duration) *Wake {
	w := &Wake{}
	w.Reset(sup, now)
	return w
}

// fingerprint is Fingerprint of the wake's support with the pending sends.
func (w *Wake) fingerprint(pending []model.Send, tq time.Duration, wq float64) (fp, verify uint64) {
	if !w.printed || w.tq != tq || w.wq != wq {
		w.print, w.tq, w.wq, w.printed = supportPrint(w.sup, w.now, tq, wq), tq, wq, true
	}
	return w.print.withPending(pending, w.now, tq)
}

// begin readies the arena for a decision of wake w under MaxHyps k: the
// top-K copy of the support and each copy's rollout-key hash (with enqueue
// stamps when stamps is set), taken afresh unless the arena last took them
// for this wake, k and stamps.
func (ar *decideArena) begin(w *Wake, k int, stamps bool) {
	if ar.wake == w.id && ar.maxHyps == k && ar.stamps == stamps {
		return
	}
	ar.wake, ar.maxHyps, ar.stamps = w.id, k, stamps
	ar.hyps = appendTopK(ar.hyps[:0], &ar.order, w.sup, k)
	ar.hkeys = slices.Grow(ar.hkeys[:0], len(ar.hyps))[:len(ar.hyps)]
	for i := range ar.hyps {
		ar.words = ar.hyps[i].S.AppendRolloutKey(ar.words[:0], w.now, stamps)
		ar.hkeys[i] = hypKey(ar.words)
	}
}
