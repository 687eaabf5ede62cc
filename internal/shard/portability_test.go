package shard

import (
	"bytes"
	"testing"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
)

// TestCheckpointPortabilityAcrossShardCounts: barrier checkpoints are
// topology-free. A K=1 run and a K=8 run of the same configuration
// produce byte-identical checkpoint stores, and a checkpoint captured
// under either shard count restores through the other's partition host
// and re-captures bit-identically.
func TestCheckpointPortabilityAcrossShardCounts(t *testing.T) {
	run := func(k int) *Fleet {
		sf := New(Config{Fleet: fleet.Config{N: 16, Seed: 21, Workers: 1}, Shards: k})
		sf.EnableCheckpoints(CheckpointConfig{Every: 2 * time.Second})
		sf.Run(12 * time.Second)
		return sf
	}
	k1, k8 := run(1), run(8)
	if k1.PriorHash() != k8.PriorHash() {
		t.Fatalf("prior hash differs across shard counts: %016x vs %016x", k1.PriorHash(), k8.PriorHash())
	}

	checked := 0
	for i := 0; i < 16; i++ {
		flow := packet.FlowID(i)
		a, b := k1.LatestCheckpoint(flow), k8.LatestCheckpoint(flow)
		if (a == nil) != (b == nil) {
			t.Fatalf("flow %d: checkpoint presence differs across shard counts (K=1 %v, K=8 %v)",
				i, a != nil, b != nil)
		}
		if a == nil {
			continue
		}
		checked++
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Errorf("flow %d: checkpoint bytes differ between K=1 and K=8", i)
		}
	}
	if checked == 0 {
		t.Fatal("no checkpoints captured to compare")
	}

	// Cross-restore both directions: the encoding carries no topology,
	// so restore + re-capture against the other runtime's partition
	// host is the identity on the checkpoint bytes.
	cross := func(src, dst *Fleet, flow packet.FlowID) {
		t.Helper()
		ck := src.LatestCheckpoint(flow)
		if ck == nil {
			t.Fatalf("flow %d: no checkpoint to cross-restore", flow)
		}
		part := dst.owner(flow)
		s, err := lifecycle.RestoreSender(part, ck, dst.PriorHash())
		if err != nil {
			t.Fatalf("flow %d: cross-restore: %v", flow, err)
		}
		m := &fleet.Member{Flow: ck.Flow, Gen: ck.Gen, Sender: s, Utility: ck.Utility, Injected: ck.Injected}
		lifecycle.RestoreGuard(m, ck)
		ck2, err := lifecycle.Capture(m, dst.PriorHash())
		if err != nil {
			t.Fatalf("flow %d: re-capture: %v", flow, err)
		}
		if !bytes.Equal(ck.Encode(), ck2.Encode()) {
			t.Errorf("flow %d: restore∘capture not the identity across shard counts", flow)
		}
	}
	cross(k1, k8, 3)
	cross(k8, k1, 5)
}
