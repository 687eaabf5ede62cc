package fleet_test

import (
	"testing"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/shard"
)

// TestSharedCacheNeverChangesADecision: the shared policy cache serves a
// member the decision another member planned under the same quantized
// fingerprint. It serves only what the member would have planned itself:
// the fleet's digest is the same with the cache and without it, at sizes
// where the cache does serve lookups.
func TestSharedCacheNeverChangesADecision(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, n := range []int{16, 64} {
		for _, seed := range []int64{1, 7} {
			cached := fleet.New(fleet.Config{N: n, Seed: seed})
			cached.Run(30 * time.Second)
			uncached := fleet.New(fleet.Config{N: n, Seed: seed, NoSharedCache: true})
			uncached.Run(30 * time.Second)
			hits, misses := cached.CacheStats()
			if hits == 0 {
				t.Errorf("N=%d seed=%d: the cache served none of %d lookups, so the run shows nothing", n, seed, misses)
			}
			if a, b := shard.DigestFleet(cached), shard.DigestFleet(uncached); a != b {
				t.Errorf("N=%d seed=%d: digest %016x with the cache (%d hits), %016x without", n, seed, a, hits, b)
			}
		}
	}
}
