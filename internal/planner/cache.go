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
// Every entry carries a secondary verification hash alongside its
// primary 64-bit fingerprint: a lookup whose fingerprint matches but
// whose verification hash does not is a detected collision and is
// treated as a miss, never served (the same discipline the persistent
// compiled tables of internal/policy apply at multi-million-entry
// scale, where 64-bit collisions stop being ignorable).
//
// A fleet's cache fingerprints under the same quanta as the offline
// policy compiler (fleet.TimeQuantum, fleet.WeightQuantum), which
// fingerprints every decision of its uncached replays
// (core.Sender.OnDecide) and writes the pairs as a persistent table.
type PolicyCache struct {
	entries map[uint64]cachedDecision
	// ring holds the resident fingerprints in insertion order; hand is
	// the clock-hand eviction cursor over it.
	ring []uint64
	hand int

	// Hits and Misses count lookups (every miss is followed by a live
	// Decide that repopulates the cache), for the ablation benchmark.
	Hits, Misses int
	// Collisions counts lookups whose fingerprint matched a resident
	// entry but whose verification hash did not — detected 64-bit
	// collisions, served as misses instead of wrong actions.
	Collisions int
	// Evictions counts entries displaced by the clock hand.
	Evictions int
	// MaxEntries bounds memory. When the cache is full an insertion
	// evicts one entry chosen by a clock hand with second chance
	// (recently hit entries are skipped once), so the working set
	// survives the boundary instead of the whole map being discarded.
	MaxEntries int
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

type cachedDecision struct {
	verify  uint64
	sendNow bool
	used    bool
	delta   time.Duration // WakeAt - now
	gain    float64
}

// entry is the resident decision under fingerprint fp.
func (cd cachedDecision) entry(fp uint64) Entry {
	return Entry{FP: fp, Verify: cd.verify, SendNow: cd.sendNow, Delta: cd.delta, Gain: cd.gain}
}

// Entry is one fingerprint → action pair: what a cache stores, and the
// record the offline policy compiler (internal/policy) writes to a table.
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

// NewPolicyCache returns an empty cache bounded to maxEntries (<= 0
// means a generous default).
func NewPolicyCache(maxEntries int) *PolicyCache {
	if maxEntries <= 0 {
		maxEntries = 1 << 16
	}
	return &PolicyCache{entries: make(map[uint64]cachedDecision), MaxEntries: maxEntries}
}

func (pc *PolicyCache) quanta() (time.Duration, float64) {
	wq := pc.WeightQuantum
	if wq <= 0 {
		wq = 1e-6
	}
	return pc.TimeQuantum, wq
}

// Len reports the resident entry count.
func (pc *PolicyCache) Len() int { return len(pc.entries) }

// Decide is a caching wrapper around Wake.Decide: on a fingerprint hit it
// returns the memoized action rebased to the wake's instant, and sets the
// entry's second-chance bit; on a miss it plans live and stores the
// result. A resident entry whose verification hash differs is a detected
// collision: it is counted, planned live as a miss — serving it would be
// a silent wrong action — and overwritten.
func (pc *PolicyCache) Decide(w *Wake, pending []model.Send, seq int64, cfg Config) Decision {
	tq, wq := pc.quanta()
	fp, ver := w.Fingerprint(pending, tq, wq)
	cd, ok := pc.entries[fp]
	if ok && cd.verify != ver {
		pc.Collisions++
		ok = false
	}
	if ok {
		if !cd.used {
			cd.used = true
			pc.entries[fp] = cd
		}
		pc.Hits++
		return cd.entry(fp).Decision(w.now, len(w.sup))
	}
	pc.Misses++
	d := w.Decide(pending, seq, cfg)
	pc.insert(fp, cachedDecision{verify: ver, sendNow: d.SendNow, delta: d.WakeAt - w.now, gain: d.Gain})
	return d
}

// insert places an entry, evicting at most one resident entry by clock
// hand when the cache is full. A full sweep of the hand clears second
// chances; the first entry found unused since its last insertion or hit
// is displaced. The working set therefore survives the MaxEntries
// boundary — the old wholesale reset periodically collapsed the hit
// rate to zero mid-run.
func (pc *PolicyCache) insert(fp uint64, cd cachedDecision) {
	if old, ok := pc.entries[fp]; ok {
		// Same fingerprint already resident (a collision overwrite):
		// replace in place, keep its ring slot and recency.
		cd.used = old.used
		pc.entries[fp] = cd
		return
	}
	if len(pc.entries) >= pc.MaxEntries && len(pc.ring) > 0 {
		// One pass grants second chances; the bound guarantees an
		// eviction even if every entry was recently used.
		for i := 0; ; i++ {
			victim := pc.ring[pc.hand]
			e := pc.entries[victim]
			if e.used && i < len(pc.ring) {
				e.used = false
				pc.entries[victim] = e
				pc.hand = (pc.hand + 1) % len(pc.ring)
				continue
			}
			delete(pc.entries, victim)
			pc.Evictions++
			pc.ring[pc.hand] = fp
			pc.hand = (pc.hand + 1) % len(pc.ring)
			break
		}
	} else {
		pc.ring = append(pc.ring, fp)
	}
	pc.entries[fp] = cd
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
