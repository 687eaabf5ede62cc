package experiments

import (
	"testing"
	"time"
)

// TestChurnZeroProbabilityStaysZero: one churn probability set to
// zero beside a non-zero one is honoured, not replaced by its default —
// only an all-zero schedule selects the defaults, on either runtime
// (the rule is lifecycle.ChurnConfig.WithDefaults). (Regression: a
// second driver for the sharded runtime defaulted each probability
// separately, so crash 0 still crashed members at 0.06.)
func TestChurnZeroProbabilityStaysZero(t *testing.T) {
	cfg := ChurnConfig{N: 8, Duration: 40 * time.Second, Seed: 3, Shards: 2,
		Epoch: 5 * time.Second, DepartProb: 0.2, ArriveProb: 0.5}
	r := RunChurn(cfg)
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
	if d := RunChurn(cfg); d.Stats.Crashes == 0 {
		t.Error("an all-zero schedule did not take the default probabilities")
	}
}

// TestChurnFaultKnobRunsOneShard: Shards 0 is "no sharding", and a
// shard fault has no single-loop form, so any fault knob beside Shards 0
// selects one shard — never shard.ResolveShards(0), one per CPU — while
// a plain churn config stays on the supervised loop. The rule is decided
// here, once, for every caller.
func TestChurnFaultKnobRunsOneShard(t *testing.T) {
	for _, c := range []struct {
		cfg  ChurnConfig
		want int
	}{
		{ChurnConfig{}, 0},
		{ChurnConfig{NoChurn: true}, 0},
		{ChurnConfig{ShardKillProb: 0.3}, 1},
		{ChurnConfig{ShardStallProb: 0.25}, 1},
		{ChurnConfig{Shards: 4, ShardKillProb: 0.3}, 4},
	} {
		if got := c.cfg.withDefaults().Shards; got != c.want {
			t.Errorf("%+v resolves Shards = %d, want %d", c.cfg, got, c.want)
		}
	}
}

// TestChurnBothRuntimesFillEveryColumn: the one reduction reads either
// runtime, so a churn run reports its recovery columns — ramp-up, early
// support, utility ratio, restart drops — from the barrier runtime as
// from the supervised loop. The gap between their values (README,
// "Lifecycle & recovery") is a finding, not an assertion.
func TestChurnBothRuntimesFillEveryColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("two long churn runs; the -race CI churn smokes cover short mode")
	}
	for _, shards := range []int{0, 1} {
		r := RunChurn(ChurnConfig{N: 16, Duration: 120 * time.Second, Seed: 42, Shards: shards})
		if r.Cfg.Shards != shards {
			t.Errorf("Shards %d ran at %d", shards, r.Cfg.Shards)
		}
		if r.Crashes == 0 || r.WarmRestarts == 0 {
			t.Fatalf("shards=%d: crashes=%d warm restarts=%d; schedule too quiet", shards, r.Crashes, r.WarmRestarts)
		}
		if r.RampSamples == 0 || r.RestartSupport15 <= 0 || r.UtilityRatio <= 0 || r.RestartDropsPerMin <= 0 {
			t.Errorf("shards=%d left a recovery column empty: ramp samples %d, sup15 %.1f, util %.3f, drops/min %.1f",
				shards, r.RampSamples, r.RestartSupport15, r.UtilityRatio, r.RestartDropsPerMin)
		}
		if r.Jain <= 0 || r.Jain > 1 || r.AggRate <= 0 || r.ReplayHash == 0 || len(r.Delivered) != r.Peak {
			t.Errorf("shards=%d: jain %v, agg %v, hash %x, %d delivery totals for %d slots",
				shards, r.Jain, r.AggRate, r.ReplayHash, len(r.Delivered), r.Peak)
		}
	}
}
