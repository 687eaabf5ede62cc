package planner

import "time"

// DefaultCacheStripes is the fixed stripe count a striped fleet cache
// uses. It is deliberately a constant independent of the shard count:
// a member's stripe is flow mod DefaultCacheStripes, so as long as the
// shard count divides the stripe count, every stripe is touched by
// exactly one shard (flows with equal residue mod K share a shard AND
// a stripe set) — the stripes need no locks, and the cache's hit/miss
// sequence is a pure function of the stripe partition, never of how
// many shards the fleet happens to be split into. That invariance is
// what keeps fleet results bit-identical for any shard count.
const DefaultCacheStripes = 16

// CacheStripes is a policy cache split into a fixed number of
// independent PolicyCache stripes keyed by flow ID. Each stripe is its
// own fixed array of the rollout memo's 4 Ki direct-mapped slots, with
// its own counters — enough, since fleet recurrence is temporally local
// (see PolicyCache) — and the striped wrapper only routes and
// aggregates.
//
// Concurrency contract: a stripe may be used from one goroutine at a
// time. The fleet's flow → stripe mapping (flow mod Stripes) combined
// with a shard partition flow mod K, K dividing Stripes, guarantees
// that — shards own disjoint stripe subsets, so a sharded fleet shares
// one CacheStripes with zero synchronization. Aggregating methods
// (Stats, Len) must only be called while no shard is running, e.g. at
// window barriers or after the run.
type CacheStripes struct {
	stripes []*PolicyCache
}

// NewCacheStripes builds n stripes (n <= 0 means DefaultCacheStripes).
func NewCacheStripes(n int) *CacheStripes {
	if n <= 0 {
		n = DefaultCacheStripes
	}
	cs := &CacheStripes{stripes: make([]*PolicyCache, n)}
	for i := range cs.stripes {
		cs.stripes[i] = NewPolicyCache()
	}
	return cs
}

// For returns the stripe serving the given flow.
func (cs *CacheStripes) For(flow uint32) *PolicyCache {
	return cs.stripes[int(flow)%len(cs.stripes)]
}

// SetQuanta applies one fingerprint quantization to every stripe. All
// stripes must share quanta — they are one logical cache, split only
// for contention.
func (cs *CacheStripes) SetQuanta(tq time.Duration, wq float64) {
	for _, s := range cs.stripes {
		s.TimeQuantum = tq
		s.WeightQuantum = wq
	}
}

// TimeQuantum reports the shared time quantum (stripe 0's, by the
// SetQuanta invariant).
func (cs *CacheStripes) TimeQuantum() time.Duration { return cs.stripes[0].TimeQuantum }

// WeightQuantum reports the shared weight quantum.
func (cs *CacheStripes) WeightQuantum() float64 { return cs.stripes[0].WeightQuantum }

// Stats sums the Decide-path hit/miss counters across stripes.
func (cs *CacheStripes) Stats() (hits, misses int) {
	for _, s := range cs.stripes {
		hits += s.Hits
		misses += s.Misses
	}
	return hits, misses
}

// Len sums occupied slots across stripes.
func (cs *CacheStripes) Len() int {
	n := 0
	for _, s := range cs.stripes {
		n += s.Len()
	}
	return n
}
