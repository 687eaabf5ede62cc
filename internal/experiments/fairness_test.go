package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestFairnessSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	res := FairnessSweep(FairnessConfig{
		Ns:       []int{2, 4, 16},
		Duration: 60 * time.Second,
		Seed:     7,
	})
	t.Logf("\n%s", res.Render())
	if len(res.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Jain <= 0 || p.Jain > 1+1e-9 {
			t.Errorf("N=%d: Jain index %v outside (0, 1]", p.N, p.Jain)
		}
		if len(p.PerFlow) != p.N {
			t.Errorf("N=%d: %d per-flow entries", p.N, len(p.PerFlow))
		}
		if p.AggRate <= 0 {
			t.Errorf("N=%d: fleet delivered nothing", p.N)
		}
		// The fleet must actually use the link it shares: at least half
		// of capacity after convergence.
		if p.AggRate < 0.5*p.LinkPkts {
			t.Errorf("N=%d: aggregate %0.3f pkt/s far below link %0.3f pkt/s", p.N, p.AggRate, p.LinkPkts)
		}
	}
	// The two-sender fleet splits evenly (it is the coexistence
	// experiment); capture effects are tolerated only at larger N.
	if res.Points[0].Jain < 0.7 {
		t.Errorf("N=2 Jain %0.3f: grossly unfair split", res.Points[0].Jain)
	}
	if !strings.Contains(res.Render(), "jain") {
		t.Error("render missing header")
	}
}

// TestFairnessSweepFairQueue: DRR restores fairness that FIFO capture
// destroys at scale — the headline comparison of the sweep.
func TestFairnessSweepFairQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := FairnessConfig{Ns: []int{16}, Duration: 60 * time.Second, Seed: 7}
	fifo := FairnessSweep(cfg)
	cfg.FairQueue = true
	drr := FairnessSweep(cfg)
	t.Logf("FIFO Jain=%.4f DRR Jain=%.4f", fifo.Points[0].Jain, drr.Points[0].Jain)
	if drr.Points[0].Jain < 0.8 {
		t.Errorf("DRR Jain %0.3f, want near-even split", drr.Points[0].Jain)
	}
	if drr.Points[0].Jain < fifo.Points[0].Jain-0.05 {
		t.Errorf("DRR (%0.3f) should not be less fair than FIFO (%0.3f)",
			drr.Points[0].Jain, fifo.Points[0].Jain)
	}
}

// TestFairnessSweepWorkerDeterminism is the acceptance criterion: a
// 256-sender fairness sweep on the shared rollout pool produces
// bit-identical output for Workers=1 and Workers=GOMAXPROCS (and an
// oversubscribed width, which exercises goroutine sharding even on a
// single-core host).
func TestFairnessSweepWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func(workers int) []FairnessPoint {
		return FairnessSweep(FairnessConfig{
			Ns:       []int{256},
			Duration: 20 * time.Second,
			Seed:     3,
			Workers:  workers,
		}).Points
	}
	serial := run(1)
	if serial[0].N != 256 {
		t.Fatalf("N = %d, want 256", serial[0].N)
	}
	if serial[0].Jain <= 0 || serial[0].Jain > 1+1e-9 {
		t.Fatalf("Jain = %v outside (0, 1]", serial[0].Jain)
	}
	for _, w := range []int{runtime.GOMAXPROCS(0), 5} {
		if got := run(w); !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d: fairness sweep diverged from serial run", w)
		}
	}
}

// TestFairnessSweepShardDeterminism: the sharded runtime feeds the same
// reduction and produces bit-identical sweep output at every shard
// count. (Sharded runs use canonical scheduling and a striped cache, so
// they are compared against each other; single-loop-vs-sharded identity
// under the matching explicit config is pinned in internal/shard.)
func TestFairnessSweepShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func(shards int) []FairnessPoint {
		return FairnessSweep(FairnessConfig{
			Ns:       []int{8},
			Duration: 30 * time.Second,
			Seed:     11,
			Workers:  1,
			Shards:   shards,
		}).Points
	}
	base := run(1)
	if got := run(4); !reflect.DeepEqual(base, got) {
		t.Errorf("shards=4: fairness sweep diverged from shards=1")
	}
}

// TestFairnessSweepLeanStats: the lean path keeps no per-packet series
// yet still reports sane rates and a tail percentile.
func TestFairnessSweepLeanStats(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	res := FairnessSweep(FairnessConfig{
		Ns:        []int{4},
		Duration:  60 * time.Second,
		Seed:      7,
		Workers:   1,
		LeanStats: true,
	})
	p := res.Points[0]
	if p.AggRate <= 0 {
		t.Fatalf("lean sweep delivered nothing")
	}
	if p.AggRate < 0.5*p.LinkPkts {
		t.Errorf("lean aggregate %0.3f pkt/s far below link %0.3f pkt/s", p.AggRate, p.LinkPkts)
	}
	for _, fs := range p.PerFlow {
		if fs.P99Delay <= 0 {
			t.Errorf("flow %d: missing P99 delay in lean mode", fs.Flow)
		}
		if fs.P99Delay+1e-9 < fs.MeanDelay {
			t.Errorf("flow %d: P99 %0.4f below mean %0.4f", fs.Flow, fs.P99Delay, fs.MeanDelay)
		}
	}
}

// TestFairnessSweepLeanMatchesFull: the lean late-ack count windows the
// second half as (half, end], as the full path windows AckedSeq, so the
// two print the same points — Jain, rates and every per-flow row. An
// acknowledgment at exactly half counted by one path and not the other
// shows as a lean rate above the link's.
func TestFairnessSweepLeanMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	run := func(lean bool) []FairnessPoint {
		return FairnessSweep(FairnessConfig{
			Ns:        []int{2, 8},
			Duration:  120 * time.Second,
			Seed:      1,
			Workers:   1,
			LeanStats: lean,
		}).Points
	}
	full, lean := run(false), run(true)
	for i := range full {
		if !reflect.DeepEqual(full[i], lean[i]) {
			t.Errorf("N = %d: lean point differs from full:\nfull: %+v\nlean: %+v", full[i].N, full[i], lean[i])
		}
	}
}
