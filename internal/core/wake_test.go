package core

import (
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/rollout"
	"modelcc/internal/units"
)

// reweighted is a belief whose Update also re-weights the support in
// place, differently every time, in storage it keeps across updates: an
// Update at the instant of the previous one leaves a support of the same
// length, at the same address, with other weights — which a planner that
// reused per-wake work by anything but the wake would not see.
type reweighted struct {
	belief.Belief
	sup     []belief.Hypothesis
	updates int
}

func (r *reweighted) Update(now time.Duration, acks []packet.Ack) belief.UpdateStats {
	st := r.Belief.Update(now, acks)
	r.sup = append(r.sup[:0], r.Belief.Support()...)
	r.updates++
	var total float64
	for i := range r.sup {
		r.sup[i].W *= float64(1 + (i+r.updates)%3)
		total += r.sup[i].W
	}
	for i := range r.sup {
		r.sup[i].W /= total
	}
	return st
}

func (r *reweighted) Support() []belief.Hypothesis { return r.sup }

func (r *reweighted) View() belief.View { return belief.Wrap(r.sup) }

// freshCheck observes the sender's decisions (Sender.OnDecide): each is
// compared with a fresh one on the belief as it stands — planner.Decide on
// a pool nothing has planned on, behind a reference PolicyCache fed the
// same calls when the sender plans through a cache. The decision's
// gate-off hypotheses are also planned alone, on the quiet pool: nothing
// arrives at them in a plan.
type freshCheck struct {
	t     *testing.T
	bel   belief.Belief
	plan  planner.Config
	ref   *planner.PolicyCache
	quiet *rollout.Pool
	calls int
}

func (f *freshCheck) decided(_ *planner.Wake, _ []model.Send, d planner.Decision) {
	f.calls++
	sup, pending, now := f.bel.Support(), f.bel.PendingSends(), f.bel.Now()
	cfg := f.plan
	cfg.Pool = rollout.New()
	var want planner.Decision
	if f.ref != nil {
		want = f.ref.Decide(planner.NewWake(sup, now), pending, 0, cfg)
	} else {
		want = planner.Decide(sup, pending, now, 0, cfg)
	}
	if d != want {
		f.t.Fatalf("decision %d at %v with %d pending: the wake decided %+v, a fresh Decide %+v", f.calls, now, len(pending), d, want)
	}
	var off []belief.Hypothesis
	for _, h := range sup {
		if !h.S.PingerOn {
			off = append(off, h)
		}
	}
	if len(off) > 0 {
		cfg.Pool = f.quiet
		planner.Decide(off, pending, now, 0, cfg)
	}
}

// TestWakeMatchesFreshDecide: a sender's decisions — planned on its
// planner.Wake, reset once per wake, through its Guard and, in half the
// runs, its PolicyCache — equal fresh Decide calls field for field, with
// the rollout memo cold at every wake and warm through the run. The sender is a 256-sender fleet's member alone against
// a truth of chunked cross traffic, its prior holding gate-off hypotheses
// (quiet: every lane closes at its fork), its wakes capped at four
// decisions (a live fleet wake's send, send, send, sleep) and its belief
// re-weighting the support in place at every update; every third wake is
// followed by a second one at the same instant. A wake's later decisions
// plan on what its first left on the wake and the pool, and the second
// wake at an instant must see the new weights. Planned alone, each
// decision's gate-off hypotheses must close every lane, and in the full
// run some later decision of a burst must derive one of them: their
// backlog of own packets outlasts the 4 s grid only from ≈ 2.4 s on.
func TestWakeMatchesFreshDecide(t *testing.T) {
	dur := 3 * time.Second
	if testing.Short() {
		dur = 2 * time.Second
	}
	const n, pkt = 256, 12000
	link := units.BitRate(6000 * n)
	prior := model.Prior{
		LinkRate:       model.PriorRange{Lo: float64(link), Hi: float64(link), N: 1},
		CrossFrac:      model.PriorRange{Lo: 1 - 1.6/n, Hi: 1 - 0.4/n, N: 4},
		BufferCapBits:  model.PriorRange{Lo: 4 * pkt * n, Hi: 4 * pkt * n, N: 1},
		FullnessSteps:  1,
		MeanSwitch:     30 * time.Second,
		PingerMaybeOff: true,
		SwitchTick:     5 * time.Second,
		CrossPktBits:   pkt * n / 4,
	}
	actual := model.Params{LinkRate: link, CrossRate: link * 0.995, MeanSwitch: 30 * time.Second, BufferCapBits: 4 * pkt * n, CrossPktBits: pkt * n / 4}
	for _, warm := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			states, _ := prior.Enumerate()
			bel := &reweighted{Belief: belief.NewExact(states, belief.Config{SoftSigma: 300 * time.Millisecond, MinWeight: 1e-5, MaxHyps: 256, Relax: true})}
			plan := planner.Config{MaxDelay: 4 * time.Second, Grid: 500 * time.Millisecond, Horizon: 12 * time.Second, MaxHyps: 64}
			snd := NewSender(bel, plan)
			snd.MaxBurst = 4
			check := &freshCheck{t: t, bel: bel, plan: plan, quiet: rollout.New()}
			snd.OnDecide = check.decided
			if cached {
				snd.Guard.Cache, check.ref = planner.NewPolicyCache(), planner.NewPolicyCache()
			}
			if warm {
				snd.Plan.Pool = rollout.New()
			}
			truth := model.NewTruth(actual, true, model.GateSquareWave, 7*time.Second, rand.New(rand.NewSource(5)))

			var inject []model.Send
			var acks []packet.Ack
			now, wakeAt, bursts, twice := time.Duration(0), time.Duration(0), 0, 0
			wake := func() {
				if !warm {
					snd.Plan.Pool = rollout.New()
				}
				before := check.calls
				act := snd.Wake(now, acks)
				if check.calls-before == 4 {
					bursts++
				}
				inject = append(inject, act.Sends...)
				wakeAt = max(act.WakeAt, now+10*time.Millisecond)
			}
			for now < dur {
				if len(acks) > 0 || now >= wakeAt {
					wake()
					if snd.Wakes%3 == 0 {
						acks = nil
						wake()
						twice++
					}
				}
				next := min(dur, wakeAt)
				if tn := truth.NextTransition(); tn > now && tn < next {
					next = tn
				}
				evs := truth.AdvanceTo(next, inject)
				inject, acks, now = inject[:0], nil, next
				for _, ev := range evs {
					if ev.Kind == model.OwnDelivered {
						acks = append(acks, packet.Ack{Flow: packet.FlowSelf, Seq: ev.Seq, ReceivedAt: ev.At})
					}
				}
			}
			t.Logf("warm %v, cached %v: %d wakes (%d deciding four times, %d at an instant already woken at), %d decisions, %d acked",
				warm, cached, snd.Wakes, bursts, twice, check.calls, snd.Acked)
			if bursts == 0 || twice == 0 || snd.Acked == 0 {
				t.Errorf("warm %v, cached %v: want four-decision wakes, second wakes and acknowledgments", warm, cached)
			}
			if st := planner.PoolMemoStats(check.quiet); st.Lanes == 0 || st.Closed != st.Lanes || (st.Derived == 0 && !testing.Short()) {
				t.Errorf("warm %v, cached %v: the gate-off hypotheses alone had %d lanes, %d closed, %d vectors derived; want some, all, some",
					warm, cached, st.Lanes, st.Closed, st.Derived)
			}
		}
	}
}
