package experiments

import (
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
)

// chaosMenu is the acceptance fault schedule: bursty ~30% loss,
// reordering with a hold-back long enough to make acks stale,
// corruption (a drop after decode fails), and a 2 s blackout mid-run.
// BurstProb 0.1 with the default burst length of 4 puts ~25% of
// packets inside bursts; i.i.d. drop and corruption take the total to
// roughly 30%.
func chaosMenu() chaos.Config {
	return chaos.Config{
		Seed:         99,
		DropProb:     0.03,
		BurstProb:    0.1,
		CorruptProb:  0.03,
		ReorderProb:  0.3,
		ReorderDelay: 2 * time.Second,
		Blackouts:    []chaos.Window{{Start: 20 * time.Second, Len: 2 * time.Second}},
	}
}

func chaosBase(dur time.Duration) ISenderConfig {
	cfg := tinyConfig(1, dur)
	cfg.BeliefCfg = belief.Config{Recover: true}
	return cfg
}

// TestChaosReplayBitIdentical: the acceptance criterion — the same seed
// replays the same fault schedule and the same run, bit for bit, on the
// DES path.
func TestChaosReplayBitIdentical(t *testing.T) {
	cfg := ChaosConfig{Base: chaosBase(120 * time.Second), Faults: chaosMenu()}
	a := RunChaos(cfg)
	b := RunChaos(cfg)
	if a.Hash != b.Hash {
		t.Fatalf("replay hashes differ: %#x vs %#x", a.Hash, b.Hash)
	}
	if a.Sent != b.Sent || a.Acked != b.Acked || a.Utility != b.Utility || a.Reseeded != b.Reseeded {
		t.Fatalf("replay diverges: %+v vs %+v", a.ISenderResult, b.ISenderResult)
	}
	if a.Sent == 0 || a.Acked == 0 {
		t.Fatalf("chaotic run made no progress: sent=%d acked=%d", a.Sent, a.Acked)
	}
	t.Logf("sent=%d acked=%d reseeded=%d data=%+v ack=%+v",
		a.Sent, a.Acked, a.Reseeded, a.DataStats, a.AckStats)
}

// TestChaosExercisesRecovery: the fault menu produces observations no
// hypothesis explains (dropped data the belief expected delivered, stale
// reordered acks), so Recover must fire — and the run must keep making
// progress afterwards.
func TestChaosExercisesRecovery(t *testing.T) {
	cfg := ChaosConfig{Base: chaosBase(120 * time.Second), Faults: chaosMenu()}
	res := RunChaos(cfg)
	if res.Reseeded == 0 {
		t.Fatal("fault menu never collapsed the belief; Recover untested")
	}
	// Post-blackout the sender must still be acknowledged: utility in the
	// final third of the run is nonzero.
	if u := res.UtilityIn(80*time.Second, 120*time.Second); u <= 0 {
		t.Fatalf("no realized utility after the blackout (total %v)", res.Utility)
	}
}

// TestChaosParticleCounters: a particle filter's lifetime counters reach
// the result like the exact belief's — branches weighed and collapses
// reseeded, read through belief.Belief rather than from one concrete kind.
func TestChaosParticleCounters(t *testing.T) {
	base := chaosBase(40 * time.Second)
	base.UseParticle, base.Particles = true, 64
	res := RunChaos(ChaosConfig{Base: base, Faults: chaosMenu()})
	if res.UpdateCum.Branches == 0 || res.Reseeded == 0 {
		t.Fatalf("particle run reports branches=%d reseeded=%d over %d wakes, want both > 0",
			res.UpdateCum.Branches, res.Reseeded, res.Wakes)
	}
	if res.Reseeded != res.UpdateCum.Reseeded {
		t.Fatalf("Reseeded %d differs from UpdateCum.Reseeded %d", res.Reseeded, res.UpdateCum.Reseeded)
	}
	t.Logf("branches=%d rejected=%d reseeded=%d wakes=%d", res.UpdateCum.Branches, res.UpdateCum.Rejected, res.Reseeded, res.Wakes)
}

// TestChaosCleanMatchesISender: with no faults enabled, RunChaos is the
// plain experiment — same counters as RunISender on the same config.
func TestChaosCleanMatchesISender(t *testing.T) {
	base := chaosBase(30 * time.Second)
	clean := RunChaos(ChaosConfig{Base: base})
	ref := RunISender(base)
	if clean.Sent != ref.Sent || clean.Acked != ref.Acked || clean.Utility != ref.Utility {
		t.Fatalf("clean chaos run diverges from RunISender: %d/%d/%v vs %d/%d/%v",
			clean.Sent, clean.Acked, clean.Utility, ref.Sent, ref.Acked, ref.Utility)
	}
}
