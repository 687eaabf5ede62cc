package planner_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/rollout"
)

// decidesAsItsSupport fails t unless a plan on b's view equals, field for
// field and gain row for gain row, a plan on b's Support wrapped as a
// plain support, each on a pool of its own, with and without a
// cross-latency penalty; and unless the view's Summarize and fingerprint
// equal the support's. It reports whether the view's classes were fewer
// than its members.
func decidesAsItsSupport(t *testing.T, name string, b belief.Belief, plan planner.Config, seq int64) bool {
	t.Helper()
	v, sup, now, pending := b.View(), b.Support(), b.Now(), b.PendingSends()
	if got, want := belief.Summarize(v), belief.Summarize(belief.Wrap(sup)); got != want {
		t.Fatalf("%s: Summarize of the view %+v, of Support %+v", name, got, want)
	}
	var w planner.Wake
	w.Reset(v, now)
	fp, ver := w.Fingerprint(pending, 10*time.Millisecond, 1e-4)
	if wfp, wver := planner.Fingerprint(sup, pending, now, 10*time.Millisecond, 1e-4); fp != wfp || ver != wver {
		t.Fatalf("%s: the view fingerprints %x/%x, Support %x/%x", name, fp, ver, wfp, wver)
	}
	for _, penalty := range []float64{0, 0.02} {
		cfg := plan
		cfg.Util.CrossLatencyPenalty, cfg.Pool = penalty, rollout.New()
		got := w.Decide(pending, seq, cfg)
		rows := planner.GainRows(cfg.Pool)
		cfg.Pool = rollout.New()
		want := planner.Decide(sup, pending, now, seq, cfg)
		if got != want {
			t.Fatalf("%s, penalty %v: the view decided %+v, Support %+v", name, penalty, got, want)
		}
		if wantRows := planner.GainRows(cfg.Pool); !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("%s, penalty %v: the view's gain rows differ from Support's", name, penalty)
		}
	}
	for i := range v.Len() {
		if v.Member(i).Class != i {
			return true
		}
	}
	return false
}

// TestViewDecidesAsItsSupport: the wake path reads a belief in place, its
// classes keyed and rolled once each (a class and a loss probability
// under a penalty), and plans exactly as on the expanded support, each
// hypothesis its own class: equal Decisions, equal gain rows, equal
// summaries and fingerprints. On generated updates of Figure 3 beliefs —
// the full prior and a smaller one, with a burst's sends pending at some
// reads, so classes of loss siblings are read — and on the members of a
// 16-sender fleet, whose classes are single hypotheses.
func TestViewDecidesAsItsSupport(t *testing.T) {
	small := model.Fig3Prior()
	small.LinkRate.N, small.CrossFrac.N, small.FullnessSteps = 4, 2, 2
	plan := planner.DefaultConfig()
	plan.Util.Alpha = 1
	shared := 0
	for i, pr := range []model.Prior{model.Fig3Prior(), small} {
		states, _ := pr.Enumerate()
		b := belief.NewExact(states, belief.Config{Relax: true})
		truth := model.NewTruth(model.Fig2Actual(), true, model.GateFixed, 0, rand.New(rand.NewSource(int64(66+i))))
		rng := rand.New(rand.NewSource(int64(i)))
		steps := 12
		if i == 1 {
			steps = 40
		}
		var now time.Duration
		var seq int64
		for k := range steps {
			var sends []model.Send
			for j := range rng.Intn(3) {
				sends = append(sends, model.Send{Seq: seq, At: now + time.Duration(1+j)*time.Millisecond})
				b.RecordSend(sends[j])
				seq++
			}
			now += time.Duration(100+rng.Intn(900)) * time.Millisecond
			var acks []packet.Ack
			for _, ev := range truth.AdvanceTo(now, sends) {
				if ev.Kind == model.OwnDelivered {
					acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
				}
			}
			b.Update(now, acks)
			for j := range rng.Intn(3) {
				// A burst's later decisions: its earlier sends are pending.
				b.RecordSend(model.Send{Seq: seq + int64(j), At: now})
			}
			if decidesAsItsSupport(t, fmt.Sprintf("Figure 3 prior %d, step %d", i, k), b, plan, seq) {
				shared++
			}
			seq += int64(len(b.PendingSends()))
			truth.AdvanceTo(now, b.PendingSends())
		}
	}
	if shared < 20 {
		t.Fatalf("%d reads of a view with fewer classes than members: the Figure 3 check is vacuous", shared)
	}

	fl := fleet.New(fleet.Config{N: 16, Seed: 3})
	cfg := fl.MemberPlanConfig()
	read := 0
	for _, at := range []time.Duration{2 * time.Second, 5 * time.Second, 9 * time.Second} {
		fl.Run(at)
		for _, m := range fl.Members {
			if m == nil {
				continue
			}
			decidesAsItsSupport(t, "fleet member", m.Sender.Belief, cfg, m.Sender.NextSeq())
			read++
		}
	}
	if read < 40 || slices.ContainsFunc(fl.Members, func(m *fleet.Member) bool { return m != nil && m.Sender.Belief.View().Len() < 2 }) {
		t.Fatalf("%d fleet beliefs read, some with fewer than two hypotheses: the fleet check is vacuous", read)
	}
}
