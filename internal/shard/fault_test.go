package shard

import (
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
)

// faultFleet builds a sharded fleet with the deterministic kill/stall
// schedule armed, and barrier checkpoints when ckpt is set (warm
// failovers; without them every failover is cold).
func faultFleet(t *testing.T, n, k int, seed int64, ckpt bool) *Fleet {
	t.Helper()
	sf := New(Config{
		Fleet:  fleet.Config{N: n, Seed: seed, Workers: 1, BeliefCfg: belief.Config{Recover: true}},
		Shards: k,
	})
	if sf.K != k {
		t.Fatalf("requested %d shards, got %d", k, sf.K)
	}
	if ckpt {
		sf.EnableCheckpoints(CheckpointConfig{Every: 2 * time.Second})
	}
	sf.EnableFaults(FaultConfig{
		Epoch: 5 * time.Second, KillProb: 0.3, StallProb: 0.25, MaxStall: time.Second,
	}, chaos.Config{Seed: seed})
	return sf
}

// failoverRecords filters the per-generation records down to the
// fault-restored ones.
func failoverRecords(sf *Fleet) []lifecycle.MemberRecord {
	var out []lifecycle.MemberRecord
	for _, r := range sf.Records {
		if r.Cause == lifecycle.CauseFailover {
			out = append(out, r)
		}
	}
	return out
}

// checkFaultRun asserts the fault machinery was actually exercised and
// that failover never merged generations' accounting: for every live
// member, the fenced Delivered count equals the acknowledgments the
// member itself absorbed (Delay.N) — a predecessor's in-flight
// deliveries leaking past a fence would break the equality.
func checkFaultRun(t *testing.T, sf *Fleet, k int) {
	t.Helper()
	fo := sf.Failover
	if fo.ShardKills == 0 || fo.FlowsFailedOver == 0 {
		t.Fatalf("shards=%d: fault schedule not exercising (kills=%d flowsFailedOver=%d)",
			k, fo.ShardKills, fo.FlowsFailedOver)
	}
	if fo.Stalls == 0 {
		t.Errorf("shards=%d: no stalls entered", k)
	}
	if sf.DegradedServed() == 0 {
		t.Errorf("shards=%d: no decisions served degraded during stalls", k)
	}
	restored := failoverRecords(sf)
	if len(restored) != fo.FlowsFailedOver {
		t.Errorf("shards=%d: %d restore records for %d failovers", k, len(restored), fo.FlowsFailedOver)
	}
	for _, r := range restored {
		// Zero is legal (re-killed, churned away, starved, or the run
		// ended); a nonzero recovery can only happen after the failover.
		if r.FirstAckAt != 0 && r.FirstAckAt <= r.M.AdmittedAt {
			t.Errorf("shards=%d: record %d/%d recovered at %v, before its failover at %v",
				k, r.M.Flow, r.M.Gen, r.FirstAckAt, r.M.AdmittedAt)
		}
	}
	for i := 0; i < sf.Slots(); i++ {
		flow := packet.FlowID(i)
		m := sf.MemberAt(flow)
		if m == nil {
			continue
		}
		if d := sf.Delivered(flow); int64(d) != m.Delay.N {
			t.Errorf("shards=%d flow %d: fenced Delivered=%d but member absorbed %d acks — generations merged",
				k, i, d, m.Delay.N)
		}
		if sf.FlowDrops(flow) < 0 {
			t.Errorf("shards=%d flow %d: negative fenced drops %d", k, i, sf.FlowDrops(flow))
		}
	}
}

// TestFaultHashInvariantAcrossShards: with shard kills and stalls
// injected from a fixed seed, the replay hash — and every failover
// counter — is bit-identical for shards ∈ {1, 2, 4, 8}.
func TestFaultHashInvariantAcrossShards(t *testing.T) {
	n, seed, dur := 16, int64(23), 20*time.Second
	ref := faultFleet(t, n, 1, seed, true)
	ref.Run(dur)
	checkFaultRun(t, ref, 1)
	if ref.Failover.WarmFailovers == 0 {
		t.Errorf("no warm failovers despite armed checkpoints (%+v)", ref.Failover)
	}
	// Warm restores resume the dead generation's ack-clocked state, so
	// at least some must absorb deliveries again even under persistent
	// congestion (where a cold restart, with no ack clock, starves).
	recovered := 0
	refRestored := failoverRecords(ref)
	for _, r := range refRestored {
		if r.FirstAckAt > r.M.AdmittedAt {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("no warm-restored generation ever absorbed a delivery")
	}
	want := ref.ReplayHash()
	for _, k := range []int{2, 4, 8} {
		sf := faultFleet(t, n, k, seed, true)
		sf.Run(dur)
		checkFaultRun(t, sf, k)
		if got := sf.ReplayHash(); got != want {
			t.Errorf("shards=%d fault hash %016x, want %016x (shards=1)", k, got, want)
		}
		if sf.Failover != ref.Failover {
			t.Errorf("shards=%d failover stats %+v, want %+v (shards=1)", k, sf.Failover, ref.Failover)
		}
		if sf.DegradedServed() != ref.DegradedServed() {
			t.Errorf("shards=%d degraded served %d, want %d (shards=1)",
				k, sf.DegradedServed(), ref.DegradedServed())
		}
		for i, a := range failoverRecords(sf) {
			if i >= len(refRestored) {
				break // count mismatch already reported by checkFaultRun
			}
			b := refRestored[i]
			if a.M.Flow != b.M.Flow || a.M.Gen != b.M.Gen || a.M.AdmittedAt != b.M.AdmittedAt ||
				a.FirstAckAt != b.FirstAckAt || a.Kind != b.Kind {
				t.Errorf("shards=%d restore record %d = %+v, want %+v (shards=1)", k, i, a, b)
				break
			}
		}
	}
}

// TestColdFailoverFencesInFlight: without checkpoints every failover
// is cold and its fence covers the dead generation's whole lifetime,
// so any packet in flight at the kill barrier must be swallowed at the
// peek instead of reaching the fresh member — and the swallow must
// keep the fenced accounting exact. Fence behavior is part of the
// replay, so the hash invariance is asserted here too.
func TestColdFailoverFencesInFlight(t *testing.T) {
	n, seed, dur := 16, int64(23), 20*time.Second
	ref := faultFleet(t, n, 1, seed, false)
	ref.Run(dur)
	checkFaultRun(t, ref, 1)
	if ref.Failover.ColdFailovers != ref.Failover.FlowsFailedOver {
		t.Errorf("checkpointless failovers not all cold: %+v", ref.Failover)
	}
	if ref.Failover.FencedAcks == 0 {
		t.Error("no deliveries fenced — killed generations' in-flight sends not exercised")
	}
	want := ref.ReplayHash()
	for _, k := range []int{2, 4} {
		sf := faultFleet(t, n, k, seed, false)
		sf.Run(dur)
		if got := sf.ReplayHash(); got != want {
			t.Errorf("shards=%d cold-failover hash %016x, want %016x (shards=1)", k, got, want)
		}
		if sf.Failover != ref.Failover {
			t.Errorf("shards=%d failover stats %+v, want %+v (shards=1)", k, sf.Failover, ref.Failover)
		}
	}
}

// TestFaultWithChurnHashInvariant layers all three lifecycle subsystems
// — churn, checkpoints, and shard faults — and asserts the composition
// stays bit-identical across shard counts. With checkpoints armed the
// churn path's restarts walk the warm rung too (not only failovers), so
// warm restarts must outnumber warm failovers.
func TestFaultWithChurnHashInvariant(t *testing.T) {
	n, seed, dur := 16, int64(99), 30*time.Second
	run := func(k int) *Fleet {
		sf := faultFleet(t, n, k, seed, true)
		sf.EnableChurn(lifecycle.ChurnConfig{
			DepartProb: 0.04, CrashProb: 0.06, ArriveProb: 0.5,
			MinLive: n / 4,
		}, lifecycle.SupervisorConfig{}, chaos.Config{Seed: seed})
		sf.Run(dur)
		return sf
	}
	ref := run(1)
	if ref.Stats.Crashes == 0 || ref.Failover.ShardKills == 0 {
		t.Fatalf("composition not exercising: crashes=%d shardKills=%d",
			ref.Stats.Crashes, ref.Failover.ShardKills)
	}
	if ref.Stats.WarmRestarts <= ref.Failover.WarmFailovers {
		t.Errorf("churn path produced no warm restarts: total warm=%d, failover warm=%d",
			ref.Stats.WarmRestarts, ref.Failover.WarmFailovers)
	}
	want := ref.ReplayHash()
	for _, k := range []int{2, 4} {
		sf := run(k)
		if got := sf.ReplayHash(); got != want {
			t.Errorf("shards=%d churn+fault hash %016x, want %016x (shards=1)", k, got, want)
		}
		if sf.Failover != ref.Failover {
			t.Errorf("shards=%d failover stats %+v, want %+v (shards=1)", k, sf.Failover, ref.Failover)
		}
	}
}

// stepWindows runs the fleet to until one Δ at a time, so each step is
// one barrier and one coupling window, and calls after with the fleet
// between that window and the next barrier.
func stepWindows(sf *Fleet, until time.Duration, after func()) {
	for t := sf.Delta; t <= until; t += sf.Delta {
		sf.Run(t)
		after()
	}
}

// TestAttachIntoStalledShardServesDegraded: a member attached at a
// barrier — a churn arrival, restart or failover restore — into a
// stalled virtual shard serves that window degraded like the members
// already there, so no member of a stalled shard ever plans live. The
// flag follows the stall both ways: every live member is degraded
// exactly while its virtual shard is stalled, so a stall's end releases
// its members too.
func TestAttachIntoStalledShardServesDegraded(t *testing.T) {
	sf := New(Config{
		Fleet:  fleet.Config{N: 32, Seed: 5, Workers: 1, BeliefCfg: belief.Config{Recover: true}},
		Shards: 2,
	})
	sf.EnableFaults(FaultConfig{Epoch: 2 * time.Second, StallProb: 0.5, MaxStall: 2 * time.Second}, chaos.Config{Seed: 5})
	sf.EnableChurn(lifecycle.ChurnConfig{Epoch: time.Second, DepartProb: 0.1, CrashProb: 0.1, ArriveProb: 0.5},
		lifecycle.SupervisorConfig{BackoffBase: 100 * time.Millisecond}, chaos.Config{Seed: 5})
	type seen struct {
		m    *fleet.Member
		live int64
	}
	last := make(map[packet.FlowID]seen)
	var stalledLive, attached, mismatched int64
	stepWindows(sf, 30*time.Second, func() {
		for f := 0; f < sf.Slots(); f++ {
			flow := packet.FlowID(f)
			m := sf.MemberAt(flow)
			if m == nil {
				delete(last, flow)
				continue
			}
			prev := last[flow]
			if prev.m != m {
				prev.live = 0 // a new generation brings a new Guard
				attached++
			}
			stalled := sf.fault.stalled[f%VirtualShards]
			if stalled {
				stalledLive += m.Sender.Guard.Live - prev.live
			}
			if m.Sender.Guard.Degraded != stalled {
				mismatched++
			}
			last[flow] = seen{m, m.Sender.Guard.Live}
		}
	})
	if sf.Failover.Stalls == 0 || attached <= int64(sf.Cfg.N) {
		t.Fatalf("schedule not exercising: stalls=%d attaches=%d", sf.Failover.Stalls, attached)
	}
	if stalledLive != 0 {
		t.Errorf("members of stalled virtual shards planned %d decisions live", stalledLive)
	}
	if mismatched != 0 {
		t.Errorf("%d member-windows had a degraded flag unequal to their virtual shard's stall", mismatched)
	}
}
