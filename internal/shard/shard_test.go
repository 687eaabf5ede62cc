package shard

import (
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/planner"
)

// steadyDigest runs an unsharded fleet and returns its digest.
func steadyDigest(t *testing.T, cfg fleet.Config, d time.Duration) uint64 {
	t.Helper()
	fl := fleet.New(cfg)
	fl.Run(d)
	return DigestFleet(fl)
}

// shardDigest runs the sharded runtime at the given shard count.
func shardDigest(t *testing.T, cfg fleet.Config, k int, d time.Duration) uint64 {
	t.Helper()
	sf := New(Config{Fleet: cfg, Shards: k})
	if sf.K != k {
		t.Fatalf("requested %d shards, got %d", k, sf.K)
	}
	sf.Run(d)
	return sf.Digest()
}

// TestShardsReproduceFleet is the tentpole invariant: the sharded
// runtime's results are bit-identical to the single-loop fleet's, for
// every shard count.
func TestShardsReproduceFleet(t *testing.T) {
	n, dur := 8, 20*time.Second
	if !testing.Short() {
		dur = 30 * time.Second
	}
	cfg := fleet.Config{N: n, Seed: 42, Canonical: true, CacheStripes: planner.DefaultCacheStripes}
	want := steadyDigest(t, cfg, dur)
	for _, k := range []int{1, 2, 4} {
		if got := shardDigest(t, cfg, k, dur); got != want {
			t.Errorf("shards=%d digest %016x, want %016x (plain fleet)", k, got, want)
		}
	}
}

// TestShardsReproduceFleetFairQueue repeats the invariant under the
// DRR bottleneck.
func TestShardsReproduceFleetFairQueue(t *testing.T) {
	cfg := fleet.Config{N: 8, Seed: 7, FairQueue: true, Canonical: true, CacheStripes: planner.DefaultCacheStripes}
	const dur = 20 * time.Second
	want := steadyDigest(t, cfg, dur)
	for _, k := range []int{1, 4} {
		if got := shardDigest(t, cfg, k, dur); got != want {
			t.Errorf("shards=%d digest %016x, want %016x (plain fleet)", k, got, want)
		}
	}
}

// TestShardsReproduceFleetN256 asserts the invariant at the
// benchmark's fleet size (skipped in -short: ~12 s of wall clock per
// run).
func TestShardsReproduceFleetN256(t *testing.T) {
	if testing.Short() {
		t.Skip("N=256 determinism sweep skipped in -short")
	}
	cfg := fleet.Config{N: 256, Seed: 1, Canonical: true, CacheStripes: planner.DefaultCacheStripes}
	const dur = 30 * time.Second
	want := steadyDigest(t, cfg, dur)
	for _, k := range []int{1, 2, ResolveShards(0)} {
		if got := shardDigest(t, cfg, k, dur); got != want {
			t.Errorf("shards=%d digest %016x, want %016x (plain fleet)", k, got, want)
		}
	}
}

// churnHash runs the sharded churn lifecycle and returns its replay
// hash.
func churnHash(t *testing.T, n, k int, seed int64, d time.Duration) uint64 {
	t.Helper()
	sf := New(Config{
		Fleet:  fleet.Config{N: n, Seed: seed, BeliefCfg: belief.Config{Recover: true}},
		Shards: k,
	})
	sf.EnableChurn(lifecycle.ChurnConfig{
		DepartProb: 0.04, CrashProb: 0.06, ArriveProb: 0.5,
		MinLive: n / 4,
	}, lifecycle.SupervisorConfig{}, chaos.Config{Seed: seed})
	sf.Run(d)
	if sf.Stats.Crashes+sf.Stats.Departures+sf.Stats.Arrivals == 0 {
		t.Fatalf("churn run produced no lifecycle events — schedule not exercising")
	}
	return sf.ReplayHash()
}

// TestChurnHashInvariantAcrossShards: the sharded churn lifecycle is
// bit-identical for every shard count.
func TestChurnHashInvariantAcrossShards(t *testing.T) {
	n, dur := 16, 60*time.Second
	want := churnHash(t, n, 1, 99, dur)
	for _, k := range []int{2, 4} {
		if got := churnHash(t, n, k, 99, dur); got != want {
			t.Errorf("shards=%d churn hash %016x, want %016x (shards=1)", k, got, want)
		}
	}
}

// TestChurnHashInvariantN256 repeats the churn invariant at N=256
// (skipped in -short).
func TestChurnHashInvariantN256(t *testing.T) {
	if testing.Short() {
		t.Skip("N=256 churn sweep skipped in -short")
	}
	n, dur := 256, 30*time.Second
	want := churnHash(t, n, 1, 5, dur)
	for _, k := range []int{2, ResolveShards(0)} {
		if got := churnHash(t, n, k, 5, dur); got != want {
			t.Errorf("shards=%d churn hash %016x, want %016x (shards=1)", k, got, want)
		}
	}
}

// TestRecycledFlowLandsOnHomeShard: a flow ID freed by a departure and
// reused by a later arrival must land on its predecessor's shard —
// the assignment is flow mod K, independent of membership history.
func TestRecycledFlowLandsOnHomeShard(t *testing.T) {
	sf := New(Config{Fleet: fleet.Config{N: 8, Seed: 3}, Shards: 4})
	sf.start()
	// Retire flow 5, then admit a successor on the same ID.
	if m := sf.Retire(5); m == nil {
		t.Fatalf("flow 5 had no member to retire")
	}
	m := sf.Attach(5, nil, 0)
	if m.Gen != 1 {
		t.Fatalf("recycled flow generation = %d, want 1", m.Gen)
	}
	home := sf.Parts[5%4]
	if m.Sender.Plan.Pool != home.Pool {
		t.Fatalf("recycled flow 5 not hosted by partition %d (flow mod K)", 5%4)
	}
	for i, p := range sf.Parts {
		if i == 5%4 {
			continue
		}
		if m.Sender.Plan.Pool == p.Pool {
			t.Fatalf("partition %d also claims flow 5", i)
		}
	}
}

// TestResolveShards pins the shard-count policy: largest power of two
// dividing the cache stripe count.
func TestResolveShards(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 4, 6: 4, 8: 8, 15: 8, 16: 16, 64: 16}
	for req, want := range cases {
		if got := ResolveShards(req); got != want {
			t.Errorf("ResolveShards(%d) = %d, want %d", req, got, want)
		}
	}
}

// TestCallerStripesIgnored runs eight partition goroutines with a
// caller-set CacheStripes of 4. New must force DefaultCacheStripes:
// honoured, stripe 0 would be shared by flows 0 and 4, homed on
// partitions 0 and 4, and -race reports the unlocked PolicyCache map
// access.
func TestCallerStripesIgnored(t *testing.T) {
	sf := New(Config{Fleet: fleet.Config{N: 32, CacheStripes: 4}, Shards: 8})
	if got := sf.Cfg.CacheStripes; got != planner.DefaultCacheStripes {
		t.Errorf("CacheStripes = %d, want %d forced", got, planner.DefaultCacheStripes)
	}
	sf.Run(15 * time.Second)
}
