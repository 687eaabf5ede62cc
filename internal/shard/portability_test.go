package shard

import (
	"reflect"
	"testing"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
)

// TestCheckpointPortabilityAcrossShardCounts: barrier checkpoints are
// topology-free. A K=1 run and a K=8 run of the same configuration
// produce equal checkpoint stores, and a checkpoint captured under
// either shard count restores through the other's partition host and
// re-captures to an equal checkpoint.
func TestCheckpointPortabilityAcrossShardCounts(t *testing.T) {
	run := func(k int) *Fleet {
		sf := New(Config{Fleet: fleet.Config{N: 16, Seed: 21}, Shards: k})
		sf.EnableCheckpoints(CheckpointConfig{Every: 2 * time.Second})
		sf.Run(12 * time.Second)
		return sf
	}
	k1, k8 := run(1), run(8)

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
		if !reflect.DeepEqual(a, b) {
			t.Errorf("flow %d: checkpoints differ between K=1 and K=8", i)
		}
	}
	if checked == 0 {
		t.Fatal("no checkpoints captured to compare")
	}

	// Cross-restore both directions: a checkpoint carries no topology,
	// so restore + re-capture against the other runtime's partition
	// host is the identity on the checkpoint.
	cross := func(src, dst *Fleet, flow packet.FlowID) {
		t.Helper()
		ck := src.LatestCheckpoint(flow)
		if ck == nil {
			t.Fatalf("flow %d: no checkpoint to cross-restore", flow)
		}
		part := dst.owner(flow)
		s, err := lifecycle.RestoreSender(part, ck)
		if err != nil {
			t.Fatalf("flow %d: cross-restore: %v", flow, err)
		}
		ck2 := lifecycle.Capture(&fleet.Member{Flow: flow, Sender: s})
		if !reflect.DeepEqual(ck, ck2) {
			t.Errorf("flow %d: restore∘capture not the identity across shard counts", flow)
		}
	}
	cross(k1, k8, 3)
	cross(k8, k1, 5)
}
