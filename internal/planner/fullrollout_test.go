package planner

import (
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// decideSupport builds a realistic mid-run support: a prior conditioned
// on one acknowledged send, so hypotheses carry uneven weights and
// non-empty queues.
func decideSupport(t *testing.T) []belief.Hypothesis {
	t.Helper()
	prior := model.Prior{
		LinkRate:       model.PriorRange{Lo: 10000, Hi: 16000, N: 3},
		CrossFrac:      model.PriorRange{Lo: 0.4, Hi: 0.7, N: 2},
		LossProb:       model.PriorRange{Lo: 0, Hi: 0.2, N: 2},
		BufferCapBits:  model.PriorRange{Lo: 72000, Hi: 108000, N: 2},
		FullnessSteps:  3,
		MeanSwitch:     100 * time.Second,
		PingerMaybeOff: true,
	}
	states, _ := prior.Enumerate()
	bel := belief.NewExact(states, belief.Config{Relax: true})
	bel.RecordSend(model.Send{Seq: 0, At: 0})
	bel.Update(1500*time.Millisecond, []packet.Ack{{Seq: 0, ReceivedAt: 1200 * time.Millisecond}})
	return bel.Support()
}

// TestDecideMatchesFullRollout cross-checks the sweep's early-retired
// gains against a brute-force evaluation that simulates every candidate
// over the full horizon with no sharing and no early exit: the chosen
// action must coincide, and every candidate's gain must agree to within
// float tolerance.
func TestDecideMatchesFullRollout(t *testing.T) {
	sup := decideSupport(t)
	now := 1500 * time.Millisecond
	cfg := DefaultConfig()
	cfg.MaxHyps = len(sup)
	seq := int64(2)

	d := Decide(sup, nil, now, seq, cfg)

	// Brute force, old-planner style.
	horizonEnd := now + cfg.MaxDelay + cfg.Horizon
	var evs []model.Event
	base := make([]float64, len(sup))
	for i, h := range sup {
		st := h.S.Clone()
		evs = evs[:0]
		st.Run(horizonEnd, nil, &evs)
		base[i] = cfg.Util.OfPredicted(evs, now, st.P.LossProb)
	}
	// The oracle must break ties exactly as Decide does — the same
	// packet-utility-scaled band, the same later-wins rule — or the
	// cross-check compares two different decision rules whenever a
	// gain lands inside one band but not the other.
	var tieEps float64
	for i := range sup {
		if b := 1e-6 * float64(sup[i].S.P.PktBits()); b > tieEps {
			tieEps = b
		}
	}
	bestDelta, maxGain, bestGain := 0, -1e308, -1e308
	for k := 0; time.Duration(k)*cfg.Grid <= cfg.MaxDelay; k++ {
		sendAt := now + time.Duration(k)*cfg.Grid
		var gain float64
		for i, h := range sup {
			st := h.S.Clone()
			evs = evs[:0]
			st.Run(horizonEnd, []model.Send{{Seq: seq, At: sendAt}}, &evs)
			gain += h.W * (cfg.Util.OfPredicted(evs, now, st.P.LossProb) - base[i])
		}
		if gain > maxGain {
			maxGain = gain
		}
		if gain >= maxGain-tieEps {
			bestDelta = k
			bestGain = gain
		}
	}

	wantWake := now + time.Duration(bestDelta)*cfg.Grid
	if d.SendNow != (bestDelta == 0) || (!d.SendNow && d.WakeAt != wantWake) {
		t.Errorf("sweep decision %+v; brute force wants delta=%d (wake %v)", d, bestDelta, wantWake)
	}
	if diff := d.Gain - bestGain; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("gain %v differs from brute force %v by %v", d.Gain, bestGain, diff)
	}
}
