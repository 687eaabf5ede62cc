package planner

import (
	"math"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/rollout"
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
	pc := NewPolicyCache()

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

// weightedSupport moves a cacheSupport's two weights 2e-6·i from their
// defaults, in place: a distinct situation per i that allocates nothing
// to build.
func weightedSupport(sup []belief.Hypothesis, i int) {
	d := 2e-6 * float64(i)
	sup[0].W, sup[1].W = 0.75+d, 0.25-d
}

// TestPolicyCacheDisplacement: two situations that share a slot displace
// each other. The later one's store overwrites the earlier, whose next
// lookup is then a miss — not a collision, its fingerprint is gone — that
// re-plans the same decision and takes the slot back.
func TestPolicyCacheDisplacement(t *testing.T) {
	cfg := DefaultConfig()
	now := 10 * time.Second
	a, b := cacheSupport(now), cacheSupport(now)
	slotOf := func(sup []belief.Hypothesis) (int, uint64) {
		fp, ver := Fingerprint(sup, nil, now, 0, 1e-6)
		return memoSlot(memoKey{fp, ver}), fp
	}
	sa, fa := slotOf(a)
	for i := 1; ; i++ {
		weightedSupport(b, i)
		if sb, fb := slotOf(b); sb == sa && fb != fa {
			break
		}
		if i > 1<<20 {
			t.Fatal("no situation shares the first one's slot")
		}
	}

	pc := NewPolicyCache()
	first := pc.Decide(NewWake(a, now), nil, 0, cfg)
	pc.Decide(NewWake(b, now), nil, 0, cfg)
	if pc.Misses != 2 || pc.Len() != 1 {
		t.Fatalf("two situations in one slot: misses=%d occupied=%d, want 2/1", pc.Misses, pc.Len())
	}
	again := pc.Decide(NewWake(a, now), nil, 0, cfg)
	if pc.Misses != 3 || pc.Hits != 0 || pc.Collisions != 0 {
		t.Fatalf("displaced situation: hits=%d misses=%d collisions=%d, want 0/3/0", pc.Hits, pc.Misses, pc.Collisions)
	}
	if again != first {
		t.Fatalf("re-planned decision %+v differs from the first %+v", again, first)
	}
	if pc.Decide(NewWake(a, now), nil, 0, cfg); pc.Hits != 1 {
		t.Fatalf("re-stored situation missed: hits=%d", pc.Hits)
	}
}

// TestPolicyCacheDoesNotAllocate: the slot array is the cache's whole
// storage. Once the first store has made it, storing any number of
// distinct situations — every slot overwritten several times — allocates
// nothing.
func TestPolicyCacheDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers, cfg.Pool = 1, rollout.New(1)
	now := 10 * time.Second
	sup := cacheSupport(now)
	pc := NewPolicyCache()
	var w Wake
	i := 0
	store := func() {
		i++
		weightedSupport(sup, i)
		w.Reset(sup, now)
		pc.Decide(&w, nil, 0, cfg)
	}
	store()
	const n = 3 << memoSlotBits
	if allocs := testing.AllocsPerRun(1, func() {
		for range n {
			store()
		}
	}); allocs != 0 {
		t.Errorf("%d stores after the first allocated %v times, want 0", n, allocs)
	}
	if pc.Hits != 0 || pc.Misses != 2*n+1 {
		t.Errorf("distinct situations: hits=%d misses=%d, want 0/%d", pc.Hits, pc.Misses, 2*n+1)
	}
}

// TestPolicyCacheCollisionDetected: an entry whose primary fingerprint
// matches but whose verification hash does not is a forced 64-bit
// collision — it must be served as a miss (recomputed), never as the
// wrong action.
func TestPolicyCacheCollisionDetected(t *testing.T) {
	cfg := DefaultConfig()
	pc := NewPolicyCache()
	now := 10 * time.Second
	sup := cacheSupport(now)
	tq, wq := pc.quanta()
	fp, ver := Fingerprint(sup, nil, now, tq, wq)

	// Forge a resident entry in this belief's slot under its fingerprint
	// with a wrong verification hash and a poisoned action.
	pc.slots = make([]Entry, 1<<memoSlotBits)
	pc.slots[memoSlot(memoKey{fp, ver})] = Entry{FP: fp, Verify: ver ^ 1, SendNow: true, Gain: 1e9}

	want := Decide(sup, nil, now, 0, cfg)
	got := pc.Decide(NewWake(sup, now), nil, 0, cfg)
	if got.SendNow != want.SendNow || got.WakeAt != want.WakeAt || got.Gain != want.Gain {
		t.Fatalf("collision not recomputed: got %+v want %+v", got, want)
	}
	if pc.Collisions != 1 || pc.Misses != 1 || pc.Hits != 0 {
		t.Fatalf("collision counters: collisions=%d misses=%d hits=%d, want 1/1/0", pc.Collisions, pc.Misses, pc.Hits)
	}

	// The recompute overwrote the forged entry with the verified one.
	got = pc.Decide(NewWake(sup, now), nil, 0, cfg)
	if pc.Hits != 1 || pc.Collisions != 1 || got.SendNow != want.SendNow || got.WakeAt != want.WakeAt {
		t.Fatalf("slot not healed after collision: hits=%d collisions=%d d=%+v", pc.Hits, pc.Collisions, got)
	}
}
