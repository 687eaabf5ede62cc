package lifecycle

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
)

// testFleet builds a small fleet used only as a source of resolved
// member-construction inputs (prior states, belief/planner configs).
func testFleet(t testing.TB) *fleet.Fleet {
	t.Helper()
	return fleet.New(fleet.Config{N: 2, Seed: 7})
}

// scriptedTrace drives a sender against a deterministic scripted
// network (every send acknowledged after a fixed delay) for the given
// number of wakes and returns the decision trace. When ckptAt >= 0 the
// sender is checkpointed and replaced by its restore at that wake — an
// uninterrupted run and an interrupted one must produce identical traces.
func scriptedTrace(t *testing.T, fl *fleet.Fleet, s *core.Sender, wakes, ckptAt int) []string {
	t.Helper()
	const delay = 150 * time.Millisecond
	var (
		trace   []string
		pending []packet.Ack
		now     time.Duration
	)
	for k := 0; k < wakes; k++ {
		if k == ckptAt {
			s = resume(t, fl, s)
		}
		var acks []packet.Ack
		for len(pending) > 0 && pending[0].ReceivedAt <= now {
			acks = append(acks, pending[0])
			pending = pending[1:]
		}
		act := s.Wake(now, acks)
		line := fmt.Sprintf("%d@%v:", k, act.WakeAt)
		for _, snd := range act.Sends {
			line += fmt.Sprintf(" %d", snd.Seq)
			pending = append(pending, packet.Ack{Seq: snd.Seq, SentAt: now, ReceivedAt: now + delay})
		}
		trace = append(trace, line)
		next := act.WakeAt
		if len(pending) > 0 && pending[0].ReceivedAt < next {
			next = pending[0].ReceivedAt
		}
		if next <= now {
			next = now + 10*time.Millisecond
		}
		now = next
	}
	return trace
}

// resume checkpoints the sender, restores it from the captured value as
// a warm restart does, asserts that capturing the restored sender gives
// the same checkpoint back, and returns the restored sender.
func resume(t *testing.T, fl *fleet.Fleet, s *core.Sender) *core.Sender {
	t.Helper()
	c := Capture(&fleet.Member{Sender: s})
	s2, err := RestoreSender(fl, c)
	if err != nil {
		t.Fatalf("RestoreSender: %v", err)
	}
	if c2 := Capture(&fleet.Member{Sender: s2}); !reflect.DeepEqual(c, c2) {
		t.Fatal("restore∘capture is not the identity on the checkpoint")
	}
	return s2
}

// TestResumeMatchesUninterruptedExact is the acceptance property: a
// member restored from Checkpoint(m) makes exactly the decisions the
// uninterrupted member would have made, for the Exact belief.
func TestResumeMatchesUninterruptedExact(t *testing.T) {
	fl := testFleet(t)
	mk := func() *core.Sender {
		return core.NewSender(belief.NewExact(fl.PriorStates(), fl.MemberBeliefConfig()), fl.MemberPlanConfig())
	}
	const wakes = 60
	straight := scriptedTrace(t, fl, mk(), wakes, -1)
	for _, at := range []int{1, 10, 30, 59} {
		resumed := scriptedTrace(t, fl, mk(), wakes, at)
		for i := range straight {
			if straight[i] != resumed[i] {
				t.Fatalf("ckpt at wake %d: decision %d diverged:\n straight: %s\n resumed:  %s",
					at, i, straight[i], resumed[i])
			}
		}
	}
}

// liveCheckpoint captures member 0 of a short real fleet run, giving
// the error-path tests a realistic checkpoint.
func liveCheckpoint(t testing.TB) (*fleet.Fleet, *Checkpoint) {
	t.Helper()
	fl := fleet.New(fleet.Config{N: 2, Seed: 11})
	fl.Run(10 * time.Second)
	return fl, Capture(fl.Members[0])
}

// TestRestoreRejectsWrongPrior: a checkpoint captured in an N = 2 fleet
// does not restore over an N = 8 fleet's prior; belief.Restore's grid
// check refuses it.
func TestRestoreRejectsWrongPrior(t *testing.T) {
	_, c := liveCheckpoint(t)
	other := fleet.New(fleet.Config{N: 8, Seed: 11})
	if _, err := RestoreSender(other, c); err == nil {
		t.Fatal("restore over a different prior succeeded; want detected error")
	} else if !strings.Contains(err.Error(), "prior") {
		t.Fatalf("wrong-prior error should name the prior mismatch, got: %v", err)
	}
}

// TestRestoreRefusesClockDisagreement: a snapshot whose clocks disagree
// — a pending send stamped before the belief's clock, or a hypothesis
// ahead of it — would panic on its first Update, and one whose weights
// are not finite — an infinite weight, or finite ones whose sum
// overflows — would normalize to NaN there and collapse under the wrong
// name. A hypothesis the prior does not hold — a ParamsID
// naming no grid point, or parameters other than its grid point's — was
// not inferred over this prior. belief.Restore refuses all six, called
// directly and through RestoreSender.
func TestRestoreRefusesClockDisagreement(t *testing.T) {
	fl, _ := liveCheckpoint(t)
	for _, row := range []struct {
		name string
		edit func(c *Checkpoint)
		want string
	}{
		{"pending send before now", func(c *Checkpoint) {
			sn := &c.Belief
			sn.Pending = append([]model.Send{{Seq: c.NextSeq, At: sn.Now - time.Millisecond}}, sn.Pending...)
		}, "precedes the belief's clock"},
		{"hypothesis ahead of now", func(c *Checkpoint) {
			sn := &c.Belief
			sn.Hyps[0].S.Now = sn.Now + time.Second
			sn.Pending = []model.Send{{Seq: c.NextSeq, At: sn.Now}}
		}, "ahead of the belief's clock"},
		{"infinite weight", func(c *Checkpoint) {
			c.Belief.Hyps[0].W = math.Inf(1)
		}, "infinite"},
		{"weights overflowing their sum", func(c *Checkpoint) {
			c.Belief.Hyps[0].W, c.Belief.Hyps[1].W = 1e308, 1e308
		}, "overflow"},
		{"ParamsID off the grid", func(c *Checkpoint) {
			c.Belief.Hyps[0].S.ParamsID = int32(len(fl.PriorStates()))
		}, "which the prior does not have"},
		{"parameters off their grid point", func(c *Checkpoint) {
			s := &c.Belief.Hyps[0].S
			p := s.P.Params
			p.LossProb += 0.01
			s.SetParams(p)
		}, "differ from the prior's grid point"},
	} {
		c := Capture(fl.Members[0]) // a fresh copy to edit
		row.edit(c)
		if _, err := belief.Restore(fl.PriorStates(), fl.MemberBeliefConfig(), c.Belief); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: belief.Restore returned %v, want an error containing %q", row.name, err, row.want)
		}
		if _, err := RestoreSender(fl, c); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: RestoreSender returned %v, want an error containing %q", row.name, err, row.want)
		}
	}
}

// missTable is a compiled policy that never answers: a fleet serving it
// plans every decision live, as one without a table does.
type missTable struct{}

func (missTable) Probe([]belief.Hypothesis, []model.Send, time.Duration) (planner.Decision, bool) {
	return planner.Decision{}, false
}

// TestRestoreGuardKeepsLastSafe: a member whose Guard has remembered a
// safe pacing interval keeps it across a warm restart — restored as
// Controller.restart restores, RestoreSender then Attach — with a
// compiled table or without one, and once degraded the original and the
// restored member each fall back to now + that interval, the last safe
// rung.
func TestRestoreGuardKeepsLastSafe(t *testing.T) {
	for _, tc := range []struct {
		name  string
		table planner.CompiledPolicy
	}{
		{"table", missTable{}},
		{"no table", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleet.Config{N: 2, Seed: 11, Table: tc.table, NoSharedCache: true}
			src := fleet.New(cfg)
			src.Run(10 * time.Second)
			orig := src.Members[0]
			ck := Capture(orig)
			want := orig.Sender.Guard.LastSafe()
			if want <= 0 {
				t.Fatal("the captured member has no safe interval: it never slept")
			}

			dst := fleet.New(cfg)
			dst.Retire(0)
			snd, err := RestoreSender(dst, ck)
			if err != nil {
				t.Fatal(err)
			}
			m := dst.Attach(0, snd, 0)
			if got := m.Sender.Guard.LastSafe(); got != want {
				t.Fatalf("restored LastSafe = %v; the original's is %v", got, want)
			}

			now := ck.Belief.Now
			for _, mm := range []struct {
				name string
				m    *fleet.Member
			}{{"original", orig}, {"restored", m}} {
				mm.m.SetDegraded(true)
				at := mm.m.Sender.Wake(now, nil).WakeAt
				if g := mm.m.Sender.Guard; g.SafeFallbacks != 1 {
					t.Fatalf("%s: %d safe fallbacks on its first degraded wake, want 1", mm.name, g.SafeFallbacks)
				}
				if at != now+want {
					t.Errorf("%s: first degraded fallback wakes at %v, want now+%v = %v", mm.name, at, want, now+want)
				}
			}
		})
	}
}
