package belief

import (
	"math"
	"testing"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/packet"
)

func tinyPrior() []model.State {
	states, _ := model.Prior{
		LinkRate:      model.PriorRange{Lo: 10000, Hi: 14000, N: 3},
		BufferCapBits: model.PriorRange{Lo: 96000, Hi: 96000, N: 1},
		FullnessSteps: 2,
	}.Enumerate()
	return states
}

// impossibleAck is an acknowledgment no hypothesis can explain: the
// sender never recorded a send for that sequence number, so every
// branch has matched < len(segAcks) and is rejected — exactly what a
// corrupted datagram or a post-blackout stale ack produces.
func impossibleAck(at time.Duration) []packet.Ack {
	return []packet.Ack{{Flow: packet.FlowSelf, Seq: 9999, SentAt: 0, ReceivedAt: at}}
}

func finiteNormalized(t *testing.T, sup []Hypothesis) {
	t.Helper()
	var total float64
	for _, h := range sup {
		if math.IsNaN(h.W) || math.IsInf(h.W, 0) {
			t.Fatalf("non-finite weight %v after recovery", h.W)
		}
		total += h.W
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("weights sum to %v after recovery, want 1", total)
	}
}

// TestExactRecoverReseeds: a zero-likelihood observation under Recover
// re-seeds from the prior instead of panicking or NaN-ing, and the
// belief keeps working afterwards.
func TestExactRecoverReseeds(t *testing.T) {
	states := tinyPrior()
	b := NewExact(states, Config{Recover: true})
	st := b.Update(2*time.Second, impossibleAck(1500*time.Millisecond))
	if st.Reseeded == 0 {
		t.Fatal("impossible ack did not trigger a reseed")
	}
	finiteNormalized(t, b.Support())
	if len(b.Support()) == 0 {
		t.Fatal("reseed produced an empty posterior")
	}
	// The reseeded states must live at the collapse instant, not time 0.
	for _, h := range b.Support() {
		if h.S.Now < 1*time.Second {
			t.Fatalf("reseeded hypothesis at Now=%v, want rebased to the collapse segment", h.S.Now)
		}
	}
	// Subsequent clean updates proceed normally.
	st = b.Update(4*time.Second, nil)
	if st.Reseeded != 0 {
		t.Fatal("clean update reseeded")
	}
	finiteNormalized(t, b.Support())
}

// TestExactRecoverDeterministic: the same collapse replays to the same
// posterior.
func TestExactRecoverDeterministic(t *testing.T) {
	run := func() []Hypothesis {
		b := NewExact(tinyPrior(), Config{Recover: true})
		b.Update(2*time.Second, impossibleAck(1500*time.Millisecond))
		b.Update(5*time.Second, nil)
		out := make([]Hypothesis, len(b.Support()))
		copy(out, b.Support())
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].W != b[i].W || !a[i].S.SameKey(&b[i].S) {
			t.Fatalf("replay diverges at hypothesis %d", i)
		}
	}
}

// TestExactDefaultStillPanics: without Recover/Relax the loud failure
// is preserved (simulator callers rely on it surfacing model bugs).
func TestExactDefaultStillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("default config did not panic on collapse")
		}
	}()
	b := NewExact(tinyPrior(), Config{})
	b.Update(2*time.Second, impossibleAck(1500*time.Millisecond))
}

// TestRecoverBeatsRelax: with both set, Recover wins.
func TestRecoverBeatsRelax(t *testing.T) {
	b := NewExact(tinyPrior(), Config{Recover: true, Relax: true})
	st := b.Update(2*time.Second, impossibleAck(1500*time.Millisecond))
	if st.Reseeded == 0 || st.Relaxed != 0 {
		t.Fatalf("precedence wrong: reseeded=%d relaxed=%d", st.Reseeded, st.Relaxed)
	}
}

// TestRestoreKinds: Restore rebuilds the belief a snapshot was taken of
// with its counters, and refuses an empty prior with an error.
func TestRestoreKinds(t *testing.T) {
	cfg := Config{Recover: true}
	b := NewExact(tinyPrior(), cfg)
	b.Update(time.Second, impossibleAck(time.Second))
	sn := b.Snapshot()
	got, err := Restore(tinyPrior(), cfg, sn)
	if err != nil {
		t.Fatal(err)
	}
	if got.Now() != b.Now() || got.Lifetime() != b.Lifetime() || got.Lifetime().Reseeded != 1 {
		t.Fatalf("restored now %v/%v, lifetime %+v/%+v", got.Now(), b.Now(), got.Lifetime(), b.Lifetime())
	}
	if _, err := Restore(nil, cfg, sn); err == nil {
		t.Fatal("empty prior restored without an error")
	}
}
