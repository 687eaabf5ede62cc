package belief_test

import (
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// TestStorageFollowsTheClasses: between updates a belief holds what its
// classes need and no more, over generated updates on a fleet member's
// prior and on Figure 3's loss prior. Where the classes are the support
// (every class one hypothesis, as on a fleet member) it holds exactly
// one header per class; where classes share loss siblings, and the
// support has a header per hypothesis, at most two per class. Its slab
// holds at most twice the queue entries in use plus one per class. Most
// reads find the kind of support the prior is for and packets queued, so
// neither bound is vacuous.
func TestStorageFollowsTheClasses(t *testing.T) {
	fl := fleet.New(fleet.Config{N: 16, Seed: 3, Workers: 1})
	pr := model.Fig3Prior()
	pr.LinkRate.N, pr.CrossFrac.N, pr.FullnessSteps = 4, 2, 2
	lossPrior, _ := pr.Enumerate()
	for _, c := range []struct {
		name   string
		states []model.State
		cfg    belief.Config
		truth  *model.Truth
		single bool
	}{
		{"fleet member", fl.PriorStates(), fl.MemberBeliefConfig(),
			model.NewTruth(fl.PriorStates()[len(fl.PriorStates())/2].P.Params, true, model.GateFixed, 0, rand.New(rand.NewSource(5))), true},
		{"fig3 loss prior", lossPrior, belief.Config{Relax: true, Workers: 1},
			model.NewTruth(model.Fig2Actual(), true, model.GateSquareWave, 20*time.Second, rand.New(rand.NewSource(6))), false},
	} {
		b := belief.NewExact(c.states, c.cfg)
		rng := rand.New(rand.NewSource(47))
		var now time.Duration
		var seq int64
		var shared, queued int
		check := func(k int) {
			slots, classes, single, held, used := belief.Storage(b)
			if single != c.single {
				shared++
			}
			if single && slots != classes || !single && slots > 2*classes {
				t.Fatalf("%s, update %d: %d header slots for %d classes (the support: %v)", c.name, k, slots, classes, single)
			}
			if held > 2*used+classes {
				t.Fatalf("%s, update %d: the slab holds %d queue entries for %d in use in %d classes", c.name, k, held, used, classes)
			}
			if used > 0 {
				queued++
			}
		}
		check(-1)
		for k := 0; k < 60; k++ {
			step := time.Duration(50+rng.Intn(1500)) * time.Millisecond
			var sends []model.Send
			for at := now + time.Duration(1+rng.Intn(200))*time.Millisecond; at <= now+step && len(sends) < 4; at += time.Duration(60+rng.Intn(300)) * time.Millisecond {
				sends = append(sends, model.Send{Seq: seq, At: at})
				b.RecordSend(sends[len(sends)-1])
				seq++
			}
			now += step
			var acks []packet.Ack
			for _, ev := range c.truth.AdvanceTo(now, sends) {
				if ev.Kind == model.OwnDelivered {
					acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
				}
			}
			b.Update(now, acks)
			check(k)
		}
		if shared > 60/2 {
			t.Fatalf("%s: %d of 61 reads had the other kind of support", c.name, shared)
		}
		if queued < 60/2 {
			t.Fatalf("%s: only %d of 61 reads had packets queued", c.name, queued)
		}
	}
}
