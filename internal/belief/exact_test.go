package belief

import (
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/units"
)

// twoRatePrior builds a tiny prior with two candidate link speeds and
// nothing else unknown: the cleanest possible inference problem.
func twoRatePrior(rates ...units.BitRate) []model.State {
	var states []model.State
	for i, c := range rates {
		p := model.Params{LinkRate: c, BufferCapBits: 96000}
		s := model.Initial(p, false)
		s.ParamsID = int32(i)
		states = append(states, s)
	}
	return states
}

// deliveryTime computes when a single packet sent at `at` on an idle
// link of rate c is delivered.
func deliveryTime(at time.Duration, c units.BitRate) time.Duration {
	return at + units.TransmitTime(packet.DefaultSizeBits, c)
}

func TestExactRejectsWrongLinkRate(t *testing.T) {
	b := NewExact(twoRatePrior(12000, 24000), Config{})
	if len(b.Support()) != 2 {
		t.Fatalf("initial support = %d", len(b.Support()))
	}

	// Send one packet at t=0; the true network is 12 kbit/s, so the ack
	// arrives at 1s. The 24 kbit/s hypothesis predicted 0.5s and must be
	// rejected.
	b.RecordSend(model.Send{Seq: 0, At: 0})
	ack := packet.Ack{Seq: 0, ReceivedAt: deliveryTime(0, 12000)}
	stats := b.Update(ack.ReceivedAt, []packet.Ack{ack})

	if stats.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", stats.Rejected)
	}
	sup := b.Support()
	if len(sup) != 1 {
		t.Fatalf("support = %d, want 1", len(sup))
	}
	if sup[0].S.P.LinkRate != 12000 {
		t.Errorf("surviving rate = %v, want 12000", sup[0].S.P.LinkRate)
	}
	if w := TotalWeight(sup); w < 0.999999 || w > 1.000001 {
		t.Errorf("weights sum to %v", w)
	}
}

func TestExactLossLikelihoodShiftsPosterior(t *testing.T) {
	// Two hypotheses identical except loss rate: p=0 vs p=0.2. A packet
	// acknowledged on time is evidence for low loss: posterior mass on
	// p=0 must rise above 0.5.
	mk := func(p float64, id int32) model.State {
		s := model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000, LossProb: p}, false)
		s.ParamsID = id
		return s
	}
	b := NewExact([]model.State{mk(0, 0), mk(0.2, 1)}, Config{})
	b.RecordSend(model.Send{Seq: 0, At: 0})
	b.Update(time.Second, []packet.Ack{{Seq: 0, ReceivedAt: time.Second}})

	var pLow float64
	for _, h := range b.Support() {
		if h.S.P.LossProb == 0 {
			pLow = h.W
		}
	}
	want := 1.0 / (1.0 + 0.8) // Bayes: 1·0.5 vs 0.8·0.5
	if diff := pLow - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("P(p=0 | acked) = %v, want %v", pLow, want)
	}

	// Conversely, an unacknowledged packet whose delivery time has
	// passed is evidence FOR loss: p=0 predicts delivery with certainty,
	// so it must be rejected outright.
	b2 := NewExact([]model.State{mk(0, 0), mk(0.2, 1)}, Config{})
	b2.RecordSend(model.Send{Seq: 0, At: 0})
	b2.Update(5*time.Second, nil) // no ack ever arrived
	sup := b2.Support()
	if len(sup) != 1 || sup[0].S.P.LossProb != 0.2 {
		t.Fatalf("lossless hypothesis should be rejected when an ack goes missing: %+v", sup)
	}
}

func TestExactInfersBufferFullness(t *testing.T) {
	// Unknown initial fullness: empty vs 4 packets. A packet sent at
	// t=0 is delivered at 1s if empty, at 5s if behind 4 fillers.
	mk := func(full int64, id int32) model.State {
		s := model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000, InitFullBits: full}, false)
		s.ParamsID = id
		return s
	}
	b := NewExact([]model.State{mk(0, 0), mk(48000, 1)}, Config{})
	b.RecordSend(model.Send{Seq: 0, At: 0})
	b.Update(5*time.Second, []packet.Ack{{Seq: 0, ReceivedAt: 5 * time.Second}})
	sup := b.Support()
	if len(sup) != 1 || sup[0].S.P.InitFullBits != 48000 {
		t.Fatalf("fullness inference failed: %+v", sup)
	}
}

func TestExactCompactionMergesConvergedStates(t *testing.T) {
	// One hypothesis with switching enabled forks at every opportunity,
	// but with no cross traffic the gate state is the ONLY divergence,
	// and queue dynamics are identical. Distinct gate states never merge
	// (they differ in PingerOn), yet fork branches with the same gate
	// state and same dynamics must merge instead of multiplying.
	p := model.Params{LinkRate: 12000, BufferCapBits: 96000, MeanSwitch: 10 * time.Second}
	s := model.Initial(p, true)
	b := NewExact([]model.State{s}, Config{})
	for step := 1; step <= 20; step++ {
		b.Update(time.Duration(step)*5*time.Second, nil)
	}
	// 20 updates × 5 opportunities each = 2^100 raw branches; compaction
	// must keep the support at exactly 2 (gate on / gate off).
	if n := len(b.Support()); n != 2 {
		t.Fatalf("support = %d after heavy forking, want 2 (compaction broken)", n)
	}
	if w := TotalWeight(b.Support()); w < 0.999999 || w > 1.000001 {
		t.Errorf("weights sum to %v", w)
	}
}

func TestExactWeightsAlwaysNormalized(t *testing.T) {
	// Property: after any sequence of updates, weights sum to 1.
	states, _ := model.Fig3Prior().Enumerate()
	// Shrink the prior for test speed: every 16th state.
	var small []model.State
	for i := 0; i < len(states); i += 16 {
		small = append(small, states[i])
	}
	b := NewExact(small, Config{})
	truth := model.NewTruth(model.Fig2Actual(), true, model.GateSquareWave, 100*time.Second, rand.New(rand.NewSource(5)))

	var sends []model.Send
	now := time.Duration(0)
	for i := int64(0); i < 10; i++ {
		at := time.Duration(i) * 2 * time.Second
		sends = append(sends, model.Send{Seq: i, At: at})
		b.RecordSend(model.Send{Seq: i, At: at})
	}
	evs := truth.AdvanceTo(30*time.Second, sends)
	var acks []packet.Ack
	for _, e := range evs {
		if e.Kind == model.OwnDelivered {
			acks = append(acks, packet.Ack{Seq: e.Seq, ReceivedAt: e.At})
		}
	}
	now = 30 * time.Second
	b.Update(now, acks)
	if w := TotalWeight(b.Support()); w < 0.999999 || w > 1.000001 {
		t.Errorf("weights sum to %v after update", w)
	}
	// The truth must survive: some hypothesis with the true parameters.
	found := false
	actual := model.Fig2Actual()
	for _, h := range b.Support() {
		if h.S.P.LinkRate == actual.LinkRate && h.S.P.CrossRate == actual.CrossRate {
			found = true
		}
	}
	if !found {
		t.Error("true parameter point rejected by its own observations")
	}
}

func TestExactPanicsOnEmptyPrior(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty prior did not panic")
		}
	}()
	NewExact(nil, Config{})
}

func TestExactPanicsOnImpossibleObservation(t *testing.T) {
	b := NewExact(twoRatePrior(12000), Config{})
	b.RecordSend(model.Send{Seq: 0, At: 0})
	defer func() {
		if recover() == nil {
			t.Error("impossible ack did not panic")
		}
	}()
	// Ack for a packet that cannot have been delivered at that time.
	b.Update(10*time.Second, []packet.Ack{{Seq: 0, ReceivedAt: 7 * time.Second}})
}

func TestExactPanicsOnTimeRegression(t *testing.T) {
	b := NewExact(twoRatePrior(12000), Config{})
	b.Update(5*time.Second, nil)
	defer func() {
		if recover() == nil {
			t.Error("time regression did not panic")
		}
	}()
	b.Update(time.Second, nil)
}

func TestExactOutOfOrderSendPanics(t *testing.T) {
	b := NewExact(twoRatePrior(12000), Config{})
	b.RecordSend(model.Send{Seq: 0, At: 2 * time.Second})
	defer func() {
		if recover() == nil {
			t.Error("out-of-order send did not panic")
		}
	}()
	b.RecordSend(model.Send{Seq: 1, At: time.Second})
}

func TestExactMaxHypsCap(t *testing.T) {
	p := model.Params{LinkRate: 12000, CrossRate: 8400, BufferCapBits: 96000, MeanSwitch: 2 * time.Second}
	s := model.Initial(p, true)
	b := NewExact([]model.State{s}, Config{MaxHyps: 4})
	// With cross traffic, gate branches genuinely diverge (queue
	// contents differ), so forks accumulate; the cap must hold them at 4.
	for step := 1; step <= 10; step++ {
		b.Update(time.Duration(step)*3*time.Second, nil)
	}
	if n := len(b.Support()); n > 4 {
		t.Errorf("support = %d, cap was 4", n)
	}
	if w := TotalWeight(b.Support()); w < 0.999999 || w > 1.000001 {
		t.Errorf("weights sum to %v after capping", w)
	}
}

func TestSummarize(t *testing.T) {
	states := twoRatePrior(12000, 24000)
	b := NewExact(states, Config{})
	e := Summarize(b.View())
	if e.N != 2 {
		t.Errorf("N = %d", e.N)
	}
	if e.ELinkRate != 18000 {
		t.Errorf("ELinkRate = %v, want 18000", e.ELinkRate)
	}
	if e.PPingerOn != 0 {
		t.Errorf("PPingerOn = %v, want 0", e.PPingerOn)
	}
	if e.MAPWeight != 0.5 {
		t.Errorf("MAPWeight = %v", e.MAPWeight)
	}
	m := MAP(b.Support())
	if m.W != 0.5 {
		t.Errorf("MAP weight = %v", m.W)
	}
}

// TotalWeight sums the hypothesis weights (should always be ~1).
func TotalWeight(hyps []Hypothesis) float64 {
	var t float64
	for _, h := range hyps {
		t += h.W
	}
	return t
}

// MAP returns the maximum a posteriori hypothesis.
func MAP(hyps []Hypothesis) Hypothesis {
	var best Hypothesis
	for _, h := range hyps {
		if h.W > best.W {
			best = h
		}
	}
	return best
}
