package model

import (
	"math/rand"
	"testing"
	"time"
)

// TestMixOneWordDifferenceNeverCollides: every Mix step is a bijection
// of the word for a fixed state and of the state for a fixed word, so
// two streams fed the same words but for one never meet again — in
// either stream, however small the difference or long the shared tail.
func TestMixOneWordDifferenceNeverCollides(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200000; trial++ {
		n := 1 + rng.Intn(24)
		at := rng.Intn(n)
		// Small structured words are what states hash: sizes, flags,
		// nanosecond offsets.
		delta := uint64(1) << uint(rng.Intn(64))
		if trial%2 == 0 {
			delta = uint64(1 + rng.Intn(3))
		}
		p1, v1 := HashSeed, VerifySeed
		p2, v2 := HashSeed, VerifySeed
		for i := 0; i < n; i++ {
			w := uint64(rng.Intn(1 << 12))
			if trial%3 == 0 {
				w = rng.Uint64()
			}
			p1, v1 = Mix(p1, v1, w)
			if i == at {
				w ^= delta
			}
			p2, v2 = Mix(p2, v2, w)
		}
		if p1 == p2 || v1 == v2 {
			t.Fatalf("trial %d: %d words differing only at %d (by %#x) share a hash: primary %x/%x verify %x/%x",
				trial, n, at, delta, p1, p2, v1, v2)
		}
	}
}

// TestHash64DoesNotAllocate pins the compaction key as allocation-free.
func TestHash64DoesNotAllocate(t *testing.T) {
	s := Initial(Fig2Actual(), true)
	var evs []Event
	s.Run(3*time.Second, []Send{{Seq: 1, At: time.Second}, {Seq: 2, At: 2 * time.Second}}, &evs)
	if s.QLen() == 0 {
		t.Fatal("state under test has an empty queue")
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink += s.Hash64() }); allocs != 0 {
		t.Fatalf("Hash64 allocates %v times per call, want 0", allocs)
	}
	_ = sink
}
