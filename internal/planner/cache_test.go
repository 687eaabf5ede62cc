package planner

import (
	"math"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/units"
)

// cacheSupport returns a small steady-state-looking support: empty
// queues, link idle, gate on, absolute times derived from `at` so the
// same situation can be reproduced at different wall clocks.
func cacheSupport(at time.Duration) []belief.Hypothesis {
	mk := func(rate units.BitRate, w float64, id int32) belief.Hypothesis {
		p := model.Params{
			LinkRate:      12000,
			CrossRate:     rate,
			MeanSwitch:    100 * time.Second,
			BufferCapBits: 96000,
		}
		s := model.Initial(p, true)
		s.ParamsID = id
		s.Now = at
		s.NextCross = at + 700*time.Millisecond
		s.NextToggle = at + time.Second
		return belief.Hypothesis{S: s, W: w}
	}
	return []belief.Hypothesis{mk(8400, 0.75, 1), mk(4800, 0.25, 2)}
}

// TestPolicyCacheHitRebasesWakeAt: a hit must return the memoized delay
// rebased onto the new decision instant, not the absolute WakeAt of the
// miss that populated the entry.
func TestPolicyCacheHitRebasesWakeAt(t *testing.T) {
	cfg := DefaultConfig()
	pc := NewPolicyCache(0)

	t1 := 10 * time.Second
	d1 := pc.Decide(NewWake(cacheSupport(t1), t1), nil, 5, cfg)
	if pc.Misses != 1 || pc.Hits != 0 {
		t.Fatalf("first decision: hits=%d misses=%d, want 0/1", pc.Hits, pc.Misses)
	}

	t2 := 25 * time.Second
	d2 := pc.Decide(NewWake(cacheSupport(t2), t2), nil, 9, cfg)
	if pc.Hits != 1 {
		t.Fatalf("translated situation missed the cache: hits=%d misses=%d", pc.Hits, pc.Misses)
	}
	if d2.SendNow != d1.SendNow {
		t.Fatalf("cached action %v differs from computed %v", d2.SendNow, d1.SendNow)
	}
	if !d1.SendNow {
		if d1.WakeAt-t1 != d2.WakeAt-t2 {
			t.Fatalf("cached delay %v != original %v", d2.WakeAt-t2, d1.WakeAt-t1)
		}
		if d2.WakeAt <= t2 {
			t.Fatalf("cached WakeAt %v not rebased past now %v", d2.WakeAt, t2)
		}
	}
	if d2.Gain != d1.Gain {
		t.Fatalf("cached gain %v != original %v", d2.Gain, d1.Gain)
	}
}

// fp64 is a test shorthand for the primary fingerprint alone.
func fp64(sup []belief.Hypothesis, pending []model.Send, now time.Duration, tq time.Duration, wq float64) uint64 {
	fp, _ := Fingerprint(sup, pending, now, tq, wq)
	return fp
}

// TestPolicyCacheFingerprintTranslationInvariance: the fingerprint
// encodes times relative to now, so the same situation at two different
// instants collides (desired), while a genuinely different situation
// does not.
func TestPolicyCacheFingerprintTranslationInvariance(t *testing.T) {
	s1 := cacheSupport(10 * time.Second)
	s2 := cacheSupport(173 * time.Second)
	if fp64(s1, nil, 10*time.Second, 0, 1e-6) != fp64(s2, nil, 173*time.Second, 0, 1e-6) {
		t.Error("translated situation fingerprints differ")
	}

	// Perturb the queue: fingerprint must change.
	s3 := cacheSupport(10 * time.Second)
	s3[0].S.Queue = append(s3[0].S.Queue, model.QPkt{Seq: -1, Bits: 12000})
	if fp64(s1, nil, 10*time.Second, 0, 1e-6) == fp64(s3, nil, 10*time.Second, 0, 1e-6) {
		t.Error("different queue contents share a fingerprint")
	}

	// Perturb the posterior weights beyond the 1e-6 quantum.
	s4 := cacheSupport(10 * time.Second)
	s4[0].W, s4[1].W = 0.5, 0.5
	if fp64(s1, nil, 10*time.Second, 0, 1e-6) == fp64(s4, nil, 10*time.Second, 0, 1e-6) {
		t.Error("different weights share a fingerprint")
	}

	// Pending sends are part of the situation.
	pend := []model.Send{{Seq: 7, At: 10 * time.Second}}
	if fp64(s1, pend, 10*time.Second, 0, 1e-6) == fp64(s1, nil, 10*time.Second, 0, 1e-6) {
		t.Error("pending send does not affect the fingerprint")
	}
}

// TestFingerprintWeightRounding: weight quantization is round-to-nearest,
// so two weights equal to within one ulp share a fingerprint AND a
// verification hash. Under the old truncating quantization,
// 0.3/1e-6 = 299999.999... truncated to 299999 while an ulp above 0.3
// truncated to 300000, splitting entries for practically identical
// beliefs.
func TestFingerprintWeightRounding(t *testing.T) {
	base := cacheSupport(10 * time.Second)
	pert := cacheSupport(10 * time.Second)
	// One-ulp perturbations around a weight whose quotient by the
	// quantum is inexact.
	base[0].W = 0.3
	pert[0].W = math.Nextafter(0.3, 1) // one ulp up
	base[1].W, pert[1].W = 0.7, 0.7
	f1, v1 := Fingerprint(base, nil, 10*time.Second, 0, 1e-6)
	f2, v2 := Fingerprint(pert, nil, 10*time.Second, 0, 1e-6)
	if f1 != f2 || v1 != v2 {
		t.Errorf("ulp-perturbed weights split the fingerprint: (%x,%x) vs (%x,%x)", f1, v1, f2, v2)
	}
	pert[0].W = math.Nextafter(0.3, 0) // one ulp down
	f3, v3 := Fingerprint(pert, nil, 10*time.Second, 0, 1e-6)
	if f1 != f3 || v1 != v3 {
		t.Errorf("ulp-below weight split the fingerprint")
	}
	// A genuinely different weight (more than half a quantum away)
	// still separates.
	pert[0].W = 0.3 + 2e-6
	if f4, _ := Fingerprint(pert, nil, 10*time.Second, 0, 1e-6); f4 == f1 {
		t.Error("distinct weights share a fingerprint")
	}
}

// TestPolicyCacheEvictRepopulates: after an eviction at MaxEntries the
// cache keeps counting misses correctly and serves hits again once
// repopulated.
func TestPolicyCacheEvictRepopulates(t *testing.T) {
	cfg := DefaultConfig()
	pc := NewPolicyCache(1) // evict on the second distinct situation

	t1 := 10 * time.Second
	pc.Decide(NewWake(cacheSupport(t1), t1), nil, 0, cfg)

	// A different situation (extra queued packet) forces an eviction.
	s2 := cacheSupport(t1)
	s2[0].S.Queue = append(s2[0].S.Queue, model.QPkt{Seq: -1, Bits: 12000})
	s2[0].S.QueueBits += 12000
	pc.Decide(NewWake(s2, t1), nil, 0, cfg)
	if pc.Misses != 2 {
		t.Fatalf("distinct situations: misses=%d, want 2", pc.Misses)
	}

	// The first situation was the clock hand's victim: miss again,
	// then hit.
	pc.Decide(NewWake(cacheSupport(t1), t1), nil, 0, cfg)
	if pc.Misses != 3 {
		t.Fatalf("evicted entry still hit: misses=%d, want 3", pc.Misses)
	}
	pc.Decide(NewWake(cacheSupport(t1), t1), nil, 0, cfg)
	if pc.Hits != 1 {
		t.Fatalf("repopulated entry missed: hits=%d", pc.Hits)
	}
}

// distinctSupport builds the i-th of many distinct steady-state-looking
// situations by varying the queue depth signature (cheap, and clearly a
// different network situation per i).
func distinctSupport(i int) []belief.Hypothesis {
	sup := cacheSupport(10 * time.Second)
	for j := 0; j <= i; j++ {
		sup[0].S.Queue = append(sup[0].S.Queue, model.QPkt{Seq: -1, Bits: int64(1000 + 100*j)})
	}
	return sup
}

// TestPolicyCacheIncrementalEviction: crossing MaxEntries evicts one
// cold entry, not the whole map. The hot working set keeps hitting
// across the boundary — under the old wholesale reset the hit rate
// collapsed to zero every time the cache filled.
func TestPolicyCacheIncrementalEviction(t *testing.T) {
	const max = 8
	pc := NewPolicyCache(max)
	now := 10 * time.Second

	// Fill to capacity with distinct situations.
	for i := 0; i < max; i++ {
		pc.Store(distinctSupport(i), nil, now, Decision{WakeAt: now + time.Duration(i+1)*time.Millisecond})
	}
	if pc.Len() != max {
		t.Fatalf("resident = %d, want %d", pc.Len(), max)
	}

	// Mark the first 7 hot (second chance), leave the 8th cold.
	hot := max - 1
	for i := 0; i < hot; i++ {
		if _, ok := pc.Lookup(NewWake(distinctSupport(i), now), nil); !ok {
			t.Fatalf("entry %d missing before boundary", i)
		}
	}

	// Push 4 new situations across the boundary, re-touching the hot
	// set between insertions, and count probe hits on the hot set.
	probes, hits := 0, 0
	for k := 0; k < 4; k++ {
		pc.Store(distinctSupport(max+k), nil, now, Decision{WakeAt: now + time.Second})
		for i := 0; i < hot; i++ {
			probes++
			if _, ok := pc.Lookup(NewWake(distinctSupport(i), now), nil); ok {
				hits++
			}
		}
	}
	if pc.Evictions != 4 {
		t.Errorf("evictions = %d, want 4 (one per boundary insert)", pc.Evictions)
	}
	// The clock hand must preserve the recently-used set: the floor is
	// deliberately strict — every hot entry survives, because each
	// insertion evicts the one cold/unused slot.
	if rate := float64(hits) / float64(probes); rate < 0.99 {
		t.Errorf("hot-set hit rate across eviction boundary = %.2f (%d/%d), want ~1.0; wholesale reset regression?",
			rate, hits, probes)
	}
	if pc.Len() != max {
		t.Errorf("resident = %d after boundary churn, want %d", pc.Len(), max)
	}
}

// TestPolicyCacheProbeCounterSplit: Lookup probes must not pollute the
// Decide-path Hits/Misses — Guard uses Lookup as its fallback rung, and
// the old shared counters double-counted every budget-blown decision,
// skewing the hit rate the fleet benches report.
func TestPolicyCacheProbeCounterSplit(t *testing.T) {
	cfg := DefaultConfig()
	pc := NewPolicyCache(0)
	now := 10 * time.Second
	sup := cacheSupport(now)

	if _, ok := pc.Lookup(NewWake(sup, now), nil); ok {
		t.Fatal("empty cache lookup hit")
	}
	if pc.ProbeMisses != 1 || pc.Misses != 0 || pc.Hits != 0 {
		t.Fatalf("probe miss leaked into Decide counters: hits=%d misses=%d probeMisses=%d",
			pc.Hits, pc.Misses, pc.ProbeMisses)
	}

	pc.Decide(NewWake(sup, now), nil, 0, cfg)
	if pc.Misses != 1 || pc.ProbeMisses != 1 {
		t.Fatalf("decide miss miscounted: misses=%d probeMisses=%d", pc.Misses, pc.ProbeMisses)
	}

	if _, ok := pc.Lookup(NewWake(sup, now), nil); !ok {
		t.Fatal("stored entry not probed")
	}
	if pc.ProbeHits != 1 || pc.Hits != 0 {
		t.Fatalf("probe hit leaked into Decide counters: hits=%d probeHits=%d", pc.Hits, pc.ProbeHits)
	}

	pc.Decide(NewWake(sup, now), nil, 0, cfg)
	if pc.Hits != 1 || pc.ProbeHits != 1 {
		t.Fatalf("decide hit miscounted: hits=%d probeHits=%d", pc.Hits, pc.ProbeHits)
	}
}

// TestPolicyCacheCollisionDetected: an entry whose primary fingerprint
// matches but whose verification hash does not is a forced 64-bit
// collision — it must be served as a miss (recomputed), never as the
// wrong action.
func TestPolicyCacheCollisionDetected(t *testing.T) {
	cfg := DefaultConfig()
	pc := NewPolicyCache(0)
	now := 10 * time.Second
	sup := cacheSupport(now)
	tq, wq := pc.quanta()
	fp, ver := Fingerprint(sup, nil, now, tq, wq)

	// Forge a resident entry under this belief's fingerprint with a
	// wrong verification hash and a poisoned action.
	pc.insert(fp, cachedDecision{verify: ver ^ 1, sendNow: true, delta: 0, gain: 1e9})

	if d, ok := pc.Lookup(NewWake(sup, now), nil); ok {
		t.Fatalf("collided entry served by Lookup: %+v", d)
	}
	if pc.Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", pc.Collisions)
	}

	want := Decide(sup, nil, now, 0, cfg)
	got := pc.Decide(NewWake(sup, now), nil, 0, cfg)
	if got.SendNow != want.SendNow || got.WakeAt != want.WakeAt || got.Gain != want.Gain {
		t.Fatalf("collision not recomputed: got %+v want %+v", got, want)
	}
	if pc.Collisions != 2 || pc.Misses != 1 {
		t.Fatalf("collision counters: collisions=%d misses=%d, want 2/1", pc.Collisions, pc.Misses)
	}

	// The recompute overwrote the forged entry with the verified one.
	if d, ok := pc.Lookup(NewWake(sup, now), nil); !ok || d.SendNow != want.SendNow || d.WakeAt != want.WakeAt {
		t.Fatalf("slot not healed after collision: ok=%v d=%+v", ok, d)
	}
}

// TestPolicyCacheSnapshotRoundTrips: Snapshot exposes exactly the
// resident entries with their verify hashes (the policy compiler's
// capture path), and OnStore observes every store.
func TestPolicyCacheSnapshotRoundTrips(t *testing.T) {
	pc := NewPolicyCache(0)
	var observed []Entry
	pc.OnStore = func(e Entry) { observed = append(observed, e) }
	now := 10 * time.Second
	for i := 0; i < 3; i++ {
		pc.Store(distinctSupport(i), nil, now, Decision{WakeAt: now + time.Duration(i+1)*50*time.Millisecond, Gain: float64(i)})
	}
	snap := pc.Snapshot()
	if len(snap) != 3 || len(observed) != 3 {
		t.Fatalf("snapshot=%d observed=%d, want 3/3", len(snap), len(observed))
	}
	byFP := map[uint64]Entry{}
	for _, e := range snap {
		byFP[e.FP] = e
	}
	for _, o := range observed {
		s, ok := byFP[o.FP]
		if !ok || s != o {
			t.Fatalf("observed entry %+v not in snapshot (%+v)", o, s)
		}
	}
}
