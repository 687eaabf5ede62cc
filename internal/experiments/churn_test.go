package experiments

import (
	"testing"
	"time"
)

// TestChurnSameSeedSameHash: two identical runs replay bit-identically
// (the weaker but faster replay property, at a smaller N).
func TestChurnSameSeedSameHash(t *testing.T) {
	if testing.Short() {
		t.Skip("long churn run; the -race CI churn smoke covers short mode")
	}
	cfg := ChurnConfig{N: 8, Duration: 60 * time.Second, Seed: 3, Epoch: 5 * time.Second}
	a, b := RunChurn(cfg), RunChurn(cfg)
	if a.ReplayHash != b.ReplayHash {
		t.Fatalf("same seed, different hashes: %016x vs %016x", a.ReplayHash, b.ReplayHash)
	}
}

// TestWarmRestartsCheaperThanCold: with checkpoints on, restarts are
// warm and resume a converged posterior; with checkpoints off they are
// cold and pay down the full prior. The restarted generations' mean
// belief support over their first 15 s must show it.
func TestWarmRestartsCheaperThanCold(t *testing.T) {
	if testing.Short() {
		t.Skip("long churn run; the -race CI churn smoke covers short mode")
	}
	base := ChurnConfig{N: 16, Duration: 120 * time.Second, Seed: 42}
	warm := RunChurn(base)
	coldCfg := base
	coldCfg.NoCheckpoints = true
	cold := RunChurn(coldCfg)

	if warm.WarmRestarts == 0 {
		t.Fatal("checkpointing run produced no warm restarts")
	}
	if warm.ColdRestarts != 0 {
		t.Errorf("checkpointing run fell back cold %d times", warm.ColdRestarts)
	}
	if cold.ColdRestarts == 0 || cold.WarmRestarts != 0 {
		t.Fatalf("no-checkpoint run restarts: cold=%d warm=%d, want all cold",
			cold.ColdRestarts, cold.WarmRestarts)
	}
	if warm.CheckpointErrors != 0 {
		t.Errorf("checkpoint errors: %d", warm.CheckpointErrors)
	}
	if warm.RestartSupport15 <= 0 || cold.RestartSupport15 <= 0 {
		t.Fatalf("support metric empty: warm %.1f cold %.1f",
			warm.RestartSupport15, cold.RestartSupport15)
	}
	if warm.RestartSupport15 >= 0.95*cold.RestartSupport15 {
		t.Errorf("warm restart support %.1f not measurably below cold %.1f",
			warm.RestartSupport15, cold.RestartSupport15)
	}
}

// TestChurnRecovery: the fleet under churn stays healthy — restarted
// members recover their share of utility, fairness holds among stable
// members, and teardown is graceful (orphan acknowledgments are
// counted, never lost to a panic).
func TestChurnRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("long churn run; the -race CI churn smoke covers short mode")
	}
	r := RunChurn(ChurnConfig{N: 16, Duration: 120 * time.Second, Seed: 7})
	if r.Live < r.Cfg.MinLive || r.Live > r.Cfg.N {
		t.Errorf("final population %d outside [%d, %d]", r.Live, r.Cfg.MinLive, r.Cfg.N)
	}
	if r.UtilityRatio < 0.9 {
		t.Errorf("post-restart utility ratio %.3f, want >= 0.9", r.UtilityRatio)
	}
	if r.Jain < 0.8 {
		t.Errorf("Jain under churn %.4f, want >= 0.8", r.Jain)
	}
	if r.Crashes > 0 && r.OrphanAcks == 0 {
		t.Error("crashes happened but no orphan acks drained; teardown not exercised")
	}
	if r.RampSamples == 0 {
		t.Error("no restarted generation lived long enough to measure ramp-up")
	}
}
