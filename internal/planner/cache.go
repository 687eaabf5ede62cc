package planner

import (
	"math"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
)

// PolicyCache memoizes decisions by belief fingerprint, realizing §3.3's
// observation that "for a particular model and distribution of possible
// states, there will be a policy that can be computed in advance". The
// fingerprint is translation-invariant: all absolute times inside the
// hypotheses are encoded relative to the decision instant, so the
// recurring situations of steady state (empty queue, link idle, same
// posterior) hit the cache even though wall-clock time differs.
//
// Weights are quantized to WeightQuantum (default 1e-6) in the
// fingerprint; two beliefs that differ by less plan identically for all
// practical purposes. TimeQuantum optionally buckets the rebased times
// the same way: a fleet of senders (internal/fleet) coarsens both so
// that members in recurring near-identical situations — same posterior
// shape, same queue, phases within a few tens of milliseconds — share
// one computed decision instead of each paying for its own.
//
// The table is the rollout memo's: 1<<memoSlotBits direct-mapped slots
// (4 Ki), found by memoSlot on the fingerprint and allocated by the
// first Decide, whose miss is the first store; each miss overwrites its
// slot. Recurrence is temporally local here too, so the slots keep the
// hits without a per-entry heap or an eviction policy: a 256-sender
// fleet's 23 s run hits 12,189 times where an unbounded map with
// second-chance eviction hit 12,200, and a 1024-sender sharded run
// 46,633 times against 46,708.
//
// Every slot carries a secondary verification hash beside its primary
// 64-bit fingerprint: a lookup whose fingerprint matches but whose
// verification hash does not is a detected collision and is treated as
// a miss, never served (the same discipline the persistent compiled
// tables of internal/policy apply at multi-million-entry scale, where
// 64-bit collisions stop being ignorable). A slot whose Verify is zero
// is empty; a situation whose verification hash is zero (one in 2⁶⁴)
// is therefore always planned live.
//
// A fleet's cache fingerprints under the same quanta as the offline
// policy compiler (fleet.TimeQuantum, fleet.WeightQuantum), which
// fingerprints every decision of its uncached replays
// (core.Sender.OnDecide) and writes the pairs as a persistent table.
type PolicyCache struct {
	slots []Entry // nil until the first store

	// Hits and Misses count lookups (every miss is followed by a live
	// Decide that overwrites the slot), for the ablation benchmark.
	Hits, Misses int
	// Collisions counts lookups whose fingerprint matched a resident
	// entry but whose verification hash did not — detected 64-bit
	// collisions, served as misses instead of wrong actions.
	Collisions int
	// TimeQuantum, when positive, buckets every rebased duration in
	// the fingerprint. Coarser buckets raise the hit rate at the price
	// of reusing a decision whose phase is off by up to one bucket;
	// the sender re-decides at every wake, so the error does not
	// accumulate. Zero fingerprints times exactly.
	TimeQuantum time.Duration
	// WeightQuantum, when positive, buckets hypothesis weights
	// (default 1e-6).
	WeightQuantum float64
}

// Entry is one fingerprint → action pair: what a cache slot holds, and
// the record the offline policy compiler (internal/policy) writes to a
// table.
type Entry struct {
	// FP is the primary fingerprint; Verify is the independently seeded
	// verification hash over the same words.
	FP, Verify uint64
	// SendNow, Delta and Gain are the memoized action: Delta is
	// WakeAt − now at the decision instant.
	SendNow bool
	Delta   time.Duration
	Gain    float64
}

// Decision rebases the entry's action onto a belief of support
// hypotheses at now.
func (e Entry) Decision(now time.Duration, support int) Decision {
	return Decision{SendNow: e.SendNow, WakeAt: now + e.Delta, Gain: e.Gain, Support: support}
}

// NewPolicyCache returns an empty cache.
func NewPolicyCache() *PolicyCache { return &PolicyCache{} }

func (pc *PolicyCache) quanta() (time.Duration, float64) {
	wq := pc.WeightQuantum
	if wq <= 0 {
		wq = 1e-6
	}
	return pc.TimeQuantum, wq
}

// Len reports the occupied slot count.
func (pc *PolicyCache) Len() int {
	n := 0
	for i := range pc.slots {
		if pc.slots[i].Verify != 0 {
			n++
		}
	}
	return n
}

// Decide is a caching wrapper around Wake.Decide: on a fingerprint hit it
// returns the memoized action rebased to the wake's instant; on a miss it
// plans live and overwrites the slot with the result. A resident entry
// whose verification hash differs is a detected collision: it is
// counted and planned live as a miss — serving it would be a silent
// wrong action.
func (pc *PolicyCache) Decide(w *Wake, pending []model.Send, seq int64, cfg Config) Decision {
	tq, wq := pc.quanta()
	fp, ver := w.Fingerprint(pending, tq, wq)
	if pc.slots == nil {
		pc.slots = make([]Entry, 1<<memoSlotBits)
	}
	e := &pc.slots[memoSlot(memoKey{fp, ver})]
	if e.Verify != 0 && e.FP == fp {
		if e.Verify == ver {
			pc.Hits++
			return e.Decision(w.now, len(w.sup))
		}
		pc.Collisions++
	}
	pc.Misses++
	d := w.Decide(pending, seq, cfg)
	*e = Entry{FP: fp, Verify: ver, SendNow: d.SendNow, Delta: d.WakeAt - w.now, Gain: d.Gain}
	return d
}

// Fingerprint hashes the support and pending sends with all times
// rebased to now, times bucketed by tq (0 = exact) and weights
// round-to-nearest by wq. Sequence numbers are deliberately excluded:
// the policy depends on the network posterior, not on which packet is
// next. It returns the primary 64-bit fingerprint and an independent
// secondary verification hash over the same words; a table entry is
// only served when both match, so a primary collision degrades to a
// miss instead of a wrong action.
//
// The quantized fingerprint is the shared key language of the warm
// PolicyCache and internal/policy's offline-compiled tables — a table
// compiled under one (tq, wq) is only probed with the same quanta (the
// table header records them).
func Fingerprint(sup []belief.Hypothesis, pending []model.Send, now time.Duration, tq time.Duration, wq float64) (fp, verify uint64) {
	return supportPrint(sup, now, tq, wq).withPending(pending, now, tq)
}

// supportPrint is the fingerprint's support half, which a Wake keeps for
// all the decisions of one wake.
func supportPrint(sup []belief.Hypothesis, now, tq time.Duration, wq float64) memoKey {
	h := memoSeed.mix(uint64(len(sup)))
	for i := range sup {
		hyp := &sup[i]
		s := &hyp.S
		h = h.mix(uint64(s.ParamsID))
		// Round-to-nearest, not truncation: the quotient of two nearby
		// floats is inexact, and truncating it lands weights equal to
		// within one ulp in adjacent buckets, splitting entries that
		// should share one.
		h = h.mix(uint64(int64(math.Round(hyp.W / wq))))
		h = h.mix(s.ShapeWord())
		h = h.mixD(s.NextCross-now, tq)
		if s.P.MeanSwitch <= 0 || s.SwitchTick <= 0 {
			// The gate can never toggle: NextToggle is inert state and
			// must not perturb the fingerprint.
			h = h.mixD(farFuture, tq)
		} else {
			h = h.mixD(s.NextToggle-now, tq)
		}
		if s.Serving {
			h = h.mixD(s.ServiceDone-now, tq)
			h = h.mix(s.InService.SizeWord())
		}
		q := s.Queued()
		for j := range q {
			h = h.mix(q[j].SizeWord())
		}
	}
	return h
}

// withPending completes a support half with the pending sends.
func (h memoKey) withPending(pending []model.Send, now, tq time.Duration) (fp, verify uint64) {
	h = h.mix(uint64(len(pending)))
	for _, snd := range pending {
		h = h.mixD(snd.At-now, tq).mix(uint64(snd.Bits))
	}
	return h.primary, h.verify
}

// Times far beyond the planning horizon are behaviourally equivalent
// ("never"); clamping them keeps e.g. a no-cross-traffic hypothesis
// (NextCross = Forever) fingerprint-stable across wakes.
const farFuture = time.Hour

// mixD folds in a rebased duration, clamped to ±farFuture and bucketed by
// tq (0 = exact).
func (h memoKey) mixD(d, tq time.Duration) memoKey {
	d = min(max(d, -farFuture), farFuture)
	if tq > 0 {
		// Floor division, not truncation: truncating toward zero would
		// make the bucket straddling zero twice as wide as every other.
		r := d % tq
		if r < 0 {
			r += tq
		}
		d -= r
	}
	return h.mix(uint64(int64(d)))
}
