package belief

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/packet"
)

func softBeliefCfg() Config {
	return Config{SoftSigma: 50 * time.Millisecond, Relax: true}
}

func TestSoftLikelihoodGaussianShape(t *testing.T) {
	cfg := softBeliefCfg()
	evs := []model.Event{{Kind: model.OwnDelivered, Seq: 0, At: time.Second}}
	mk := func(offset time.Duration) float64 {
		acks := map[int64]time.Duration{0: time.Second + offset}
		return softLikelihood(evs, acks, 2*time.Second, 0, cfg)
	}
	exact := mk(0)
	oneSigma := mk(50 * time.Millisecond)
	threeSigma := mk(150 * time.Millisecond)
	if exact != 1 {
		t.Errorf("exact match likelihood = %v, want 1", exact)
	}
	if math.Abs(oneSigma-math.Exp(-0.5)) > 1e-12 {
		t.Errorf("1σ likelihood = %v, want e^-0.5", oneSigma)
	}
	if threeSigma >= oneSigma {
		t.Error("likelihood not decreasing with timing error")
	}
	// Symmetric in the sign of the error.
	if math.Abs(mk(-50*time.Millisecond)-oneSigma) > 1e-12 {
		t.Error("soft likelihood asymmetric")
	}
}

func TestSoftLikelihoodGraceWindow(t *testing.T) {
	cfg := softBeliefCfg()
	// Prediction 100 ms ago, no ack yet: within the 4σ=200 ms grace it
	// must be neutral, after it must be penalized.
	evs := []model.Event{{Kind: model.OwnDelivered, Seq: 0, At: time.Second}}
	none := map[int64]time.Duration{}
	recent := softLikelihood(evs, none, time.Second+100*time.Millisecond, 0, cfg)
	if recent != 1 {
		t.Errorf("pending prediction weighted %v, want neutral 1", recent)
	}
	stale := softLikelihood(evs, none, 3*time.Second, 0, cfg)
	if stale >= 0.05 {
		t.Errorf("stale unacked prediction weighted %v, want <= miss floor region", stale)
	}
	// With a real loss probability the penalty is that probability.
	staleLossy := softLikelihood(evs, none, 3*time.Second, 0.2, cfg)
	if math.Abs(staleLossy-0.2) > 1e-12 {
		t.Errorf("lossy miss = %v, want 0.2", staleLossy)
	}
}

func TestSoftLikelihoodBufferDropContradiction(t *testing.T) {
	cfg := softBeliefCfg()
	evs := []model.Event{{Kind: model.OwnBufferDrop, Seq: 3, At: time.Second}}
	acks := map[int64]time.Duration{3: 1100 * time.Millisecond}
	w := softLikelihood(evs, acks, 2*time.Second, 0, cfg)
	if w > 1e-10 {
		t.Errorf("acked-but-dropped weighted %v, want crushing", w)
	}
	if w == 0 {
		t.Error("soft contradiction must crush, not kill")
	}
}

func TestSoftModeSurvivesBoundaryStraddle(t *testing.T) {
	// Regression: a prediction and its ack separated by an update
	// boundary must not kill a p=0 hypothesis in soft mode.
	s := model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000}, false)
	b := NewExact([]model.State{s}, softBeliefCfg())
	b.RecordSend(model.Send{Seq: 0, At: 0})
	// Update just before the predicted 1 s delivery: nothing observed.
	b.Update(990*time.Millisecond, nil)
	// The ack arrives 30 ms "late" relative to the model, in the next
	// update window.
	b.Update(1100*time.Millisecond, []packet.Ack{{Seq: 0, ReceivedAt: 1030 * time.Millisecond}})
	if len(b.Support()) != 1 {
		t.Fatalf("hypothesis killed by boundary straddle: %d left", len(b.Support()))
	}
	if w := TotalWeight(b.Support()); w < 0.999999 || w > 1.000001 {
		t.Errorf("weights = %v", w)
	}
}

func TestSoftModeRanksRatesByFit(t *testing.T) {
	// Acks at 12 kbit/s timings with ±20 ms jitter: the 12 kbit/s
	// hypothesis must end up dominant even though no hypothesis matches
	// exactly.
	states := twoRatePrior(12000, 18000)
	b := NewExact(states, softBeliefCfg())
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < 6; i++ {
		at := time.Duration(i) * 2 * time.Second
		b.RecordSend(model.Send{Seq: i, At: at})
		jitter := time.Duration(rng.Intn(41)-20) * time.Millisecond
		ackAt := at + time.Second + jitter
		b.Update(ackAt+time.Millisecond, []packet.Ack{{Seq: i, ReceivedAt: ackAt}})
	}
	var w12 float64
	for _, h := range b.Support() {
		if h.S.P.LinkRate == 12000 {
			w12 += h.W
		}
	}
	if w12 < 0.99 {
		t.Errorf("P(c=12000 | jittered acks) = %v, want > 0.99", w12)
	}
}

func TestSoftModeRelaxSurvivesNonsense(t *testing.T) {
	// An ack for a packet never sent is inexplicable under every
	// hypothesis; Relax mode must keep the posterior alive and count
	// the event... the prediction side cannot match, and the ack is
	// simply unexplained: with a sent packet dropped at the buffer in
	// every world AND an ack observed, all worlds crush; Relax rescues.
	p := model.Params{LinkRate: 12000, BufferCapBits: 12000, InitFullBits: 12000}
	s := model.Initial(p, false)
	b := NewExact([]model.State{s}, softBeliefCfg())
	// Fill the single-packet buffer, then send another that must drop.
	b.RecordSend(model.Send{Seq: 0, At: 0})
	b.RecordSend(model.Send{Seq: 1, At: 1 * time.Millisecond})
	b.RecordSend(model.Send{Seq: 2, At: 2 * time.Millisecond})
	// Claim seq 2 (predicted dropped in every world) was acked: the
	// crush applies but the single world survives via renormalization,
	// exercising the crushing path end to end.
	st := b.Update(5*time.Second, []packet.Ack{
		{Seq: 0, ReceivedAt: time.Second},
		{Seq: 1, ReceivedAt: 2 * time.Second},
		{Seq: 2, ReceivedAt: 3 * time.Second},
	})
	if st.N == 0 {
		t.Fatal("belief died despite Relax")
	}
	if w := TotalWeight(b.Support()); w < 0.999999 || w > 1.000001 {
		t.Errorf("weights = %v", w)
	}
}

// TestWeightsNormalizedProperty: after any plausible soft update
// sequence, weights sum to 1.
func TestWeightsNormalizedProperty(t *testing.T) {
	f := func(jitters []int8) bool {
		states := twoRatePrior(10000, 12000, 14000)
		b := NewExact(states, softBeliefCfg())
		now := time.Duration(0)
		for i, j := range jitters {
			if i >= 8 {
				break
			}
			seq := int64(i)
			at := now + 100*time.Millisecond
			b.RecordSend(model.Send{Seq: seq, At: at})
			ackAt := at + time.Second + time.Duration(j)*time.Millisecond
			if ackAt <= now {
				ackAt = now + time.Millisecond
			}
			now = ackAt
			b.Update(now, []packet.Ack{{Seq: seq, ReceivedAt: ackAt}})
			w := TotalWeight(b.Support())
			if w < 0.999999 || w > 1.000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}
