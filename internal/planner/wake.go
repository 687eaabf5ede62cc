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
// fingerprint's support half, here, for the PolicyCache, for a compiled
// table that probes with the wake (WakePolicy) and for policy.Compile's
// record of each decision, and the top-K copy of the support and each
// hypothesis's rollout-key hash on the pool (decideArena.begin). The wake keeps one support half, under the last
// quanta asked for: a cache and a table that share quanta (a table is
// compiled under its fleet's cache quanta) print it once.
//
// A Wake is valid as long as its support: until the belief's next Update,
// or the next Support of another belief on the same pool (Support's own
// contract) — so Reset it after every Update. Reuse is keyed by the wake alone:
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

// Support is the wake's support, valid as long as the belief's Support.
func (w *Wake) Support() []belief.Hypothesis { return w.sup }

// Now is the instant every decision of the wake plans from.
func (w *Wake) Now() time.Duration { return w.now }

// Fingerprint is Fingerprint of the wake's support at its instant with the
// pending sends. The support half is printed on the first call under
// quanta (tq, wq) and kept for the wake's later calls under the same
// quanta; only the pending half is hashed per call.
func (w *Wake) Fingerprint(pending []model.Send, tq time.Duration, wq float64) (fp, verify uint64) {
	if !w.printed || w.tq != tq || w.wq != wq {
		w.print, w.tq, w.wq, w.printed = supportPrint(w.sup, w.now, tq, wq), tq, wq, true
	}
	return w.print.withPending(pending, w.now, tq)
}

// begin readies the arena for a decision of wake w under MaxHyps k: the
// top-K copy of the support and each copy's rollout-key hash (under a
// cross-latency penalty, if any), taken afresh unless the arena last took
// them for this wake, k and penalty.
func (ar *decideArena) begin(w *Wake, k int, penalty bool) {
	if ar.wake == w.id && ar.maxHyps == k && ar.penalty == penalty {
		return
	}
	ar.wake, ar.maxHyps, ar.penalty = w.id, k, penalty
	ar.hyps = appendTopK(ar.hyps[:0], &ar.order, w.sup, k)
	ar.hkeys = slices.Grow(ar.hkeys[:0], len(ar.hyps))[:len(ar.hyps)]
	for i := range ar.hyps {
		ar.words = ar.hyps[i].S.AppendRolloutKey(ar.words[:0], w.now, penalty)
		ar.hkeys[i] = hypKey(ar.words)
	}
}
