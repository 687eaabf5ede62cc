package belief_test

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// TestHypothesisLayout pins a support entry at 128 bytes: a 120-byte
// model.State and its weight.
func TestHypothesisLayout(t *testing.T) {
	if got := unsafe.Sizeof(belief.Hypothesis{}); got != 128 {
		t.Errorf("belief.Hypothesis is %d bytes, want 128", got)
	}
}

// TestSupportSharesOneRecordPerGridPoint: however an exact belief forks,
// moves, compacts, caps and reseeds its hypotheses, they keep sharing the
// prior's records — one per ParamsID, never a copy — over 50 generated
// updates on the Figure 3 prior and on a fleet member's. Then each belief
// is snapshotted with a record of its own on every state, as a decoded
// checkpoint carries, restored and made to reseed: the restored support
// and the reseeded one hold the prior's records too, one per ParamsID
// across both.
func TestSupportSharesOneRecordPerGridPoint(t *testing.T) {
	fig3, _ := model.Fig3Prior().Enumerate()
	fl := fleet.New(fleet.Config{N: 16, Seed: 3, Workers: 1})
	for _, c := range []struct {
		name   string
		states []model.State
		cfg    belief.Config
	}{
		{"fig3", fig3, belief.Config{Recover: true, MaxHyps: 2000}},
		{"fleet member", fl.PriorStates(), fl.MemberBeliefConfig()},
	} {
		b := belief.NewExact(c.states, c.cfg)
		rng := rand.New(rand.NewSource(36))
		truth := model.NewTruth(c.states[len(c.states)/2].P.Params, true, model.GateFixed, 0, rand.New(rand.NewSource(37)))
		var now time.Duration
		var seq int64
		for k := 0; k < 50; k++ {
			step := time.Duration(50+rng.Intn(1500)) * time.Millisecond
			var sends []model.Send
			for at := now + time.Duration(1+rng.Intn(200))*time.Millisecond; at <= now+step && len(sends) < 3; at += time.Duration(100+rng.Intn(400)) * time.Millisecond {
				sends = append(sends, model.Send{Seq: seq, At: at})
				b.RecordSend(sends[len(sends)-1])
				seq++
			}
			now += step
			var acks []packet.Ack
			for _, ev := range truth.AdvanceTo(now, sends) {
				if ev.Kind == model.OwnDelivered {
					acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
				}
			}
			if rng.Intn(10) == 0 {
				// An acknowledgment nothing explains: a collapse to reseed from.
				acks = append(acks, packet.Ack{Seq: 1 << 40, ReceivedAt: now - step/2})
			}
			b.Update(now, acks)

			byID := map[int32]any{}
			ids := map[any]int32{}
			for _, h := range b.Support() {
				rec := any(h.S.P)
				if r, ok := byID[h.S.ParamsID]; ok && r != rec {
					t.Fatalf("%s, update %d: ParamsID %d holds two parameter records", c.name, k, h.S.ParamsID)
				}
				if id, ok := ids[rec]; ok && id != h.S.ParamsID {
					t.Fatalf("%s, update %d: ParamsIDs %d and %d share a record", c.name, k, id, h.S.ParamsID)
				}
				byID[h.S.ParamsID], ids[rec] = rec, h.S.ParamsID
			}
			if len(ids) > len(byID) {
				t.Fatalf("%s, update %d: %d records for %d ParamsIDs", c.name, k, len(ids), len(byID))
			}
		}

		sn := b.Snapshot()
		for i := range sn.Hyps {
			sn.Hyps[i].S.SetParams(sn.Hyps[i].S.P.Params)
		}
		// Hard matching, so that an acknowledgment nothing explains
		// collapses the fleet member's belief too.
		cfg := c.cfg
		cfg.Recover, cfg.SoftSigma = true, 0
		r, err := belief.Restore(c.states, cfg, sn)
		if err != nil {
			t.Fatalf("%s: Restore: %v", c.name, err)
		}
		byID := map[int32]any{}
		held := func(stage string) {
			for _, h := range r.Support() {
				if rec, ok := byID[h.S.ParamsID]; ok && rec != any(h.S.P) {
					t.Fatalf("%s, %s: ParamsID %d holds two parameter records", c.name, stage, h.S.ParamsID)
				}
				byID[h.S.ParamsID] = h.S.P
			}
		}
		held("restored")
		reseeded := r.Lifetime().Reseeded
		r.Update(now+time.Second, []packet.Ack{{Seq: 1 << 40, ReceivedAt: now + time.Second/2}})
		if r.Lifetime().Reseeded == reseeded {
			t.Fatalf("%s: the unexplained acknowledgment did not reseed the restored belief", c.name)
		}
		held("reseeded after the restore")
	}
}
