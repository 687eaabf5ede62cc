package planner

import (
	"math/rand"
	"testing"
)

// TestFreshIndexFindsFirstMatch holds Decide's in-call share index to the
// scan it replaced: over generated keys with many repeats and colliding
// primaries, claim returns the first earlier fresh index with an equal
// key, or -1, exactly as a scan of the fresh indices so far does.
func TestFreshIndexFindsFirstMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var ix freshIndex
	for c := 0; c < 200; c++ {
		n := 1 + rng.Intn(300)
		distinct := 1 + rng.Intn(n)
		keys := make([]memoKey, n)
		for i := range keys {
			k := uint64(rng.Intn(distinct))
			keys[i] = memoKey{primary: k%7<<40 | k%3, verify: k}
		}
		ix.reset(n, n)
		var fresh []int32
		for i := range keys {
			want := int32(-1)
			for _, j := range fresh {
				if keys[j] == keys[i] {
					want = j
					break
				}
			}
			if want < 0 {
				fresh = append(fresh, int32(i))
			}
			if got := ix.claim(keys, i); got != want {
				t.Fatalf("case %d key %d: claim = %d, the scan finds %d", c, i, got, want)
			}
		}
	}
}
