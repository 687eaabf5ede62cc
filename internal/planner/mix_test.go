package planner

import (
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
)

// genSupport draws a support of the shape fingerprints see: a few
// hypotheses differing in small structured words — a grid point, a
// quantized weight, flags, millisecond offsets, short queues of one or
// two packet sizes.
func genSupport(rng *rand.Rand, now time.Duration) []belief.Hypothesis {
	sup := make([]belief.Hypothesis, 1+rng.Intn(4))
	for i := range sup {
		p := model.Params{
			LinkRate:      12000,
			CrossRate:     4800,
			MeanSwitch:    100 * time.Second,
			BufferCapBits: 96000,
		}
		s := model.Initial(p, rng.Intn(2) == 0)
		s.ParamsID = int32(rng.Intn(64))
		s.Now = now
		s.NextCross = now + time.Duration(rng.Intn(2000))*time.Millisecond
		s.NextToggle = now + time.Duration(rng.Intn(1000))*time.Millisecond
		if s.Serving = rng.Intn(2) == 0; s.Serving {
			s.ServiceDone = now + time.Duration(rng.Intn(1000))*time.Millisecond
			s.InService = model.QPkt{Own: rng.Intn(2) == 0, Bits: 12000}
		}
		s.Queue, s.QHead = nil, 0
		for q := rng.Intn(6); q > 0; q-- {
			s.Queue = append(s.Queue, model.QPkt{Own: rng.Intn(2) == 0, Bits: int64(6000 * (1 + rng.Intn(2)))})
		}
		sup[i] = belief.Hypothesis{S: s, W: float64(1+rng.Intn(1000)) / 1000}
	}
	return sup
}

// TestFingerprintStreamsFailIndependently: over 10⁶ generated supports
// no two share a 64-bit primary or verify word, and — counted on 16-bit
// truncations, where collisions abound — supports that collide on the
// primary collide on the verify no more often than chance. That
// independence is what makes a verify mismatch expose a primary
// collision instead of repeating it.
func TestFingerprintStreamsFailIndependently(t *testing.T) {
	n := 1000000
	if testing.Short() {
		n = 100000
	}
	rng := rand.New(rand.NewSource(7))
	now := 10 * time.Second
	type pair struct{ fp, ver uint64 }
	seen := make(map[pair]struct{}, n)
	byFP := make(map[uint64]struct{}, n)
	byVer := make(map[uint64]struct{}, n)
	low := make(map[uint16]int32)
	lowBoth := make(map[uint32]int32)
	for len(seen) < n {
		fp, ver := Fingerprint(genSupport(rng, now), nil, now, 0, 1e-3)
		if _, dup := seen[pair{fp, ver}]; dup {
			continue // the generator repeated a support
		}
		seen[pair{fp, ver}] = struct{}{}
		byFP[fp] = struct{}{}
		byVer[ver] = struct{}{}
		low[uint16(fp)]++
		lowBoth[uint32(uint16(fp))<<16|uint32(uint16(ver))]++
	}
	if len(byFP) != n || len(byVer) != n {
		t.Fatalf("%d distinct supports gave %d primaries and %d verify words", n, len(byFP), len(byVer))
	}
	var onPrimary, onBoth float64
	for _, c := range low {
		onPrimary += float64(c) * float64(c-1) / 2
	}
	for _, c := range lowBoth {
		onBoth += float64(c) * float64(c-1) / 2
	}
	pairs := float64(n) * float64(n-1) / 2
	if want := pairs / (1 << 16); onPrimary < 0.9*want || onPrimary > 1.1*want {
		t.Errorf("pairs sharing 16 primary bits: %.0f, uniform hashing gives %.0f", onPrimary, want)
	}
	// Given a primary collision, the verify bits should agree one time
	// in 2¹⁶: a few hundred pairs at 10⁶, Poisson spread.
	if want := onPrimary / (1 << 16); onBoth < want/2 || onBoth > 2*want+10 {
		t.Errorf("pairs sharing 16 primary and 16 verify bits: %.0f, independence gives %.0f", onBoth, want)
	}
}

// TestFingerprintDoesNotAllocate pins the table and cache key as
// allocation-free.
func TestFingerprintDoesNotAllocate(t *testing.T) {
	now := 10 * time.Second
	sup := genSupport(rand.New(rand.NewSource(3)), now)
	pending := []model.Send{{Seq: 1, At: now, Bits: 12000}}
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		fp, ver := Fingerprint(sup, pending, now, 25*time.Millisecond, 1e-3)
		sink += fp ^ ver
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint allocates %v times per call, want 0", allocs)
	}
	_ = sink
}
