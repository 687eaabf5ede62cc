package planner

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/utility"
)

// certain returns a single-hypothesis support with weight 1.
func certain(s model.State) []belief.Hypothesis {
	return []belief.Hypothesis{{S: s, W: 1}}
}

func idleLink() model.State {
	return model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000}, false)
}

func testCfg() Config {
	return Config{
		Util:     utility.Config{Alpha: 1, Kappa: time.Second},
		MaxDelay: 2400 * time.Millisecond,
		Grid:     200 * time.Millisecond,
		Horizon:  12 * time.Second,
		MaxHyps:  256,
	}
}

func TestSendNowOnIdleLink(t *testing.T) {
	// Empty queue, known link: sending now strictly dominates any delay
	// (earlier delivery, no one harmed).
	d := Decide(certain(idleLink()), nil, 0, 0, testCfg())
	if !d.SendNow {
		t.Fatalf("idle link: want SendNow, got wake at %v (gain %v)", d.WakeAt, d.Gain)
	}
	if d.Gain <= 0 {
		t.Errorf("sending on an idle link must have positive gain, got %v", d.Gain)
	}
}

func TestPacingWhenOwnQueueDeep(t *testing.T) {
	// The sender's own packets already fill several queue slots. The
	// next packet's delivery time is pinned by the backlog, so sending
	// now buys nothing over waiting: the planner must prefer a delay
	// (the tie-break that produces pacing).
	s := idleLink()
	var evs []model.Event
	sends := []model.Send{{Seq: 0, At: 0}, {Seq: 1, At: 0}, {Seq: 2, At: 0}}
	s.Run(time.Millisecond, sends, &evs)

	d := Decide(certain(s), nil, time.Millisecond, 3, testCfg())
	if d.SendNow {
		t.Fatal("deep own queue: want a paced delay, got SendNow")
	}
	if d.WakeAt <= time.Millisecond {
		t.Errorf("WakeAt = %v, want in the future", d.WakeAt)
	}
}

func TestDefersWhenBufferMayBeFull(t *testing.T) {
	// Two equally likely worlds: buffer empty vs buffer full. In the
	// full world, sending now wastes the packet (tail drop); waiting
	// one service time gets it through in both worlds. With a discount
	// timescale comparable to the queue drain time (so a delayed
	// delivery retains value), the planner must wait — the paper's
	// "begins tentatively if it is not sure of ... initial buffer
	// occupancy".
	empty := model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000}, false)
	empty.ParamsID = 0
	full := model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000, InitFullBits: 96000 + 12000}, false)
	full.ParamsID = 1
	sup := []belief.Hypothesis{{S: empty, W: 0.5}, {S: full, W: 0.5}}

	cfg := testCfg()
	cfg.Util.Kappa = 10 * time.Second
	d := Decide(sup, nil, 0, 0, cfg)
	if d.SendNow {
		t.Fatal("uncertain fullness: want deferral, got SendNow")
	}
}

func TestAlphaOrdering(t *testing.T) {
	// A nearly full buffer shared with active cross traffic: sending
	// now grabs the last slot and forces a future cross drop. The α < 1
	// sender should do it; the α > 1 sender should not.
	mk := func() model.State {
		p := model.Params{
			LinkRate:      12000,
			CrossRate:     8400,
			BufferCapBits: 96000,
			InitFullBits:  96000, // queue full of filler + 1 in service
		}
		return model.Initial(p, true)
	}
	cfgLow := testCfg()
	cfgLow.Util.Alpha = 0.5
	cfgHigh := testCfg()
	cfgHigh.Util.Alpha = 5

	dLow := Decide(certain(mk()), nil, 0, 0, cfgLow)
	dHigh := Decide(certain(mk()), nil, 0, 0, cfgHigh)

	if dHigh.SendNow {
		t.Error("α=5 sender sent into a full shared buffer")
	}
	// The selfish sender must act no later than the deferential one.
	lowAt, highAt := dLow.WakeAt, dHigh.WakeAt
	if dLow.SendNow {
		lowAt = 0
	}
	if lowAt > highAt {
		t.Errorf("α=0.5 waits (%v) longer than α=5 (%v)", lowAt, highAt)
	}
}

func TestPendingSendsOccupyQueueInRollouts(t *testing.T) {
	// Without pending replay, a burst of decisions at one wakeup would
	// all see an empty queue and all say "send now". With replay, after
	// a few commitments the planner must start pacing.
	s := idleLink()
	cfg := testCfg()
	var pending []model.Send
	sentNow := 0
	for i := int64(0); i < 10; i++ {
		d := Decide(certain(s), pending, 0, i, cfg)
		if !d.SendNow {
			break
		}
		sentNow++
		pending = append(pending, model.Send{Seq: i, At: 0})
	}
	if sentNow == 0 {
		t.Fatal("first decision on an idle link should send")
	}
	if sentNow >= 10 {
		t.Fatal("planner never started pacing despite 10 pending sends")
	}
}

func TestLatencyPenaltyDrainsFirst(t *testing.T) {
	// §4: with a latency penalty on cross traffic and a partially full
	// buffer, the sender waits for the backlog to drain before using
	// the link, because its packet would add queueing delay to every
	// cross packet behind it.
	p := model.Params{
		LinkRate:      12000,
		CrossRate:     3000, // light cross traffic
		BufferCapBits: 96000,
		InitFullBits:  48000,
	}
	s := model.Initial(p, true)
	cfg := testCfg()
	cfg.Util.CrossLatencyPenalty = 2.0

	d := Decide(certain(s), nil, 0, 0, cfg)
	if d.SendNow {
		t.Fatal("latency-penalized sender should wait for the buffer to drain")
	}

	// Without the penalty the same situation is worth sending into
	// sooner (or now).
	s2 := model.Initial(p, true)
	cfg2 := testCfg()
	d2 := Decide(certain(s2), nil, 0, 0, cfg2)
	at2 := d2.WakeAt
	if d2.SendNow {
		at2 = 0
	}
	if at2 > d.WakeAt {
		t.Errorf("unpenalized sender waits longer (%v) than penalized (%v)", at2, d.WakeAt)
	}
}

func TestTopK(t *testing.T) {
	s := idleLink()
	sup := []belief.Hypothesis{
		{S: s, W: 0.5}, {S: s, W: 0.3}, {S: s, W: 0.15}, {S: s, W: 0.05},
	}
	got := topK(sup, 2)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].W < got[1].W {
		t.Error("topK not sorted by weight")
	}
	total := got[0].W + got[1].W
	if total < 0.999999 || total > 1.000001 {
		t.Errorf("topK not renormalized: %v", total)
	}
	// k >= len preserves order and weights.
	same := topK(sup, 10)
	if len(same) != 4 || same[0].W != 0.5 {
		t.Errorf("topK with k>=len altered input: %+v", same)
	}
}

// TestTopKMatchesCopySort: the top-K taken through an index sort is, hypothesis
// for hypothesis and in order, the top-K of a copy of the support sorted
// by sort.Slice under the same comparison — under heavy weight ties, where
// only pdqsort's own sequence of swaps decides which of the tied
// hypotheses make the cut and in what order, at widths across its
// insertion-sort, pattern-breaking and heap-sort regimes. One index is
// reused throughout, as a pool's arena reuses it.
func TestTopKMatchesCopySort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var order byWeight
	var dst []belief.Hypothesis
	for _, n := range []int{3, 12, 13, 50, 257, 300, 1000, 4480} {
		for _, levels := range []int{1, 2, 5, 40} {
			sup := make([]belief.Hypothesis, n)
			for i := range sup {
				sup[i].S.ParamsID = int32(i)
				sup[i].W = float64(1+rng.Intn(levels)) / 64
			}
			if levels == 40 {
				// Sorted runs, ascending and descending, as a support's
				// weights often are.
				for i := range sup {
					sup[i].W = float64(i%17) / 64
					if i%34 >= 17 {
						sup[i].W = float64(16-i%17) / 64
					}
				}
			}
			for _, k := range []int{1, 7, 256, n - 1} {
				if k < 1 || k >= n {
					continue
				}
				ref := append([]belief.Hypothesis(nil), sup...)
				sort.Slice(ref, func(i, j int) bool { return ref[i].W > ref[j].W })
				want := topK(ref[:k], k)
				dst = appendTopK(dst[:0], &order, sup, k)
				for i := range want {
					if dst[i].S.ParamsID != want[i].S.ParamsID || math.Float64bits(dst[i].W) != math.Float64bits(want[i].W) {
						t.Fatalf("n %d, %d weight levels, k %d: hypothesis %d is #%d (w %v), the copy sort's #%d (w %v)",
							n, levels, k, i, dst[i].S.ParamsID, dst[i].W, want[i].S.ParamsID, want[i].W)
					}
				}
			}
		}
	}
}

func TestDecisionMetadata(t *testing.T) {
	d := Decide(certain(idleLink()), nil, 0, 0, testCfg())
	if d.Candidates != 13 { // 0..2400ms step 200ms
		t.Errorf("Candidates = %d, want 13", d.Candidates)
	}
	if d.Support != 1 {
		t.Errorf("Support = %d, want 1", d.Support)
	}
}

func TestPolicyCacheHitsOnRecurrence(t *testing.T) {
	pc := NewPolicyCache()
	cfg := testCfg()
	s := idleLink()

	d1 := pc.Decide(NewWake(certain(s), 0), nil, 0, cfg)
	// Same situation, shifted in time and with a different sequence
	// number: must hit, and the wake time must be rebased.
	s2 := idleLink()
	s2.Now = 100 * time.Second
	s2.NextCross = s.NextCross + 100*time.Second
	s2.NextToggle = s.NextToggle + 100*time.Second
	d2 := pc.Decide(NewWake(certain(s2), 100*time.Second), nil, 42, cfg)

	if pc.Hits != 1 || pc.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", pc.Hits, pc.Misses)
	}
	if d1.SendNow != d2.SendNow {
		t.Error("cache changed the decision")
	}
	if !d2.SendNow && d2.WakeAt-100*time.Second != d1.WakeAt {
		t.Errorf("cached wake not rebased: %v vs %v", d2.WakeAt, d1.WakeAt)
	}
}

func TestPolicyCacheDistinguishesQueueState(t *testing.T) {
	pc := NewPolicyCache()
	cfg := testCfg()
	pc.Decide(NewWake(certain(idleLink()), 0), nil, 0, cfg)

	busy := idleLink()
	var evs []model.Event
	busy.Run(time.Millisecond, []model.Send{{Seq: 0, At: 0}, {Seq: 1, At: 0}}, &evs)
	pc.Decide(NewWake(certain(busy), time.Millisecond), nil, 2, cfg)

	if pc.Hits != 0 {
		t.Error("cache conflated distinct queue states")
	}
}
