package belief

import (
	"testing"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// parallelPrior is a small but non-trivial prior for the equivalence
// tests: several link rates and loss levels so updates reject, reweigh,
// fork, and compact.
func parallelPrior() []model.State {
	p := model.Prior{
		LinkRate:       model.PriorRange{Lo: 10000, Hi: 16000, N: 3},
		CrossFrac:      model.PriorRange{Lo: 0.4, Hi: 0.7, N: 2},
		LossProb:       model.PriorRange{Lo: 0, Hi: 0.2, N: 2},
		BufferCapBits:  model.PriorRange{Lo: 72000, Hi: 108000, N: 2},
		FullnessSteps:  2,
		MeanSwitch:     100 * time.Second,
		PingerMaybeOff: true,
	}
	states, _ := p.Enumerate()
	return states
}

// driveBelief runs a fixed send/ack script against b and returns the
// final posterior.
func driveBelief(b Belief) []Hypothesis {
	for s := int64(0); s < 4; s++ {
		at := time.Duration(s) * 2 * time.Second
		b.RecordSend(model.Send{Seq: s, At: at})
		b.Update(at+1500*time.Millisecond, []packet.Ack{{Seq: s, ReceivedAt: at + 1200*time.Millisecond}})
	}
	return b.Support()
}

// sameSupport asserts two posteriors are identical: same states in the
// same order with bitwise-equal weights.
func sameSupport(t *testing.T, serial, parallel []Hypothesis) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("support sizes differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].S.Key() != parallel[i].S.Key() {
			t.Fatalf("hypothesis %d state differs between worker counts", i)
		}
		if serial[i].W != parallel[i].W {
			t.Fatalf("hypothesis %d weight differs: serial %v, parallel %v", i, serial[i].W, parallel[i].W)
		}
	}
}

// TestExactParallelEquivalence: Exact.Update is bit-identical with 1
// worker and with many.
func TestExactParallelEquivalence(t *testing.T) {
	states := parallelPrior()
	cfg := Config{SoftSigma: 100 * time.Millisecond, Relax: true}

	serialCfg := cfg
	serialCfg.Workers = 1
	parCfg := cfg
	parCfg.Workers = 7

	sup1 := driveBelief(NewExact(states, serialCfg))
	supN := driveBelief(NewExact(states, parCfg))
	sameSupport(t, sup1, supN)
}

// TestExactParallelEquivalenceHard: same check with hard rejection.
func TestExactParallelEquivalenceHard(t *testing.T) {
	states := parallelPrior()
	sup1 := driveBelief(NewExact(states, Config{Workers: 1, Relax: true}))
	supN := driveBelief(NewExact(states, Config{Workers: 5, Relax: true}))
	sameSupport(t, sup1, supN)
}
