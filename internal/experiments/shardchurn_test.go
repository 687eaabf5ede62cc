package experiments

import (
	"testing"
	"time"
)

// TestShardChurnZeroProbabilityStaysZero: one churn probability set to
// zero beside a non-zero one is honoured, not replaced by its default —
// only an all-zero schedule selects the defaults, as on the single-loop
// driver. (Regression: the sharded driver defaulted each probability
// separately, so crash 0 still crashed members at 0.06.)
func TestShardChurnZeroProbabilityStaysZero(t *testing.T) {
	cfg := ShardChurnConfig{N: 8, Duration: 40 * time.Second, Seed: 3, Shards: 2,
		Epoch: 5 * time.Second, DepartProb: 0.2, ArriveProb: 0.5}
	r := RunShardChurn(cfg)
	if r.Stats.Crashes != 0 {
		t.Errorf("crash probability 0 produced %d crashes", r.Stats.Crashes)
	}
	if r.Stats.Departures == 0 {
		t.Error("depart probability 0.2 produced no departures; test is vacuous")
	}
	if r.Jain <= 0 || r.Jain > 1 {
		t.Errorf("Jain = %v, want a value in (0, 1] from a non-lean run", r.Jain)
	}
	cfg.DepartProb, cfg.ArriveProb = 0, 0
	if d := RunShardChurn(cfg); d.Stats.Crashes == 0 {
		t.Error("an all-zero schedule did not take the default probabilities")
	}
}
