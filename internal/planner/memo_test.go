package planner

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/rollout"
	"modelcc/internal/utility"
)

// memoWorld is a generator of Decide inputs whose situations recur the
// way a fleet's do: a fixed stock of mid-run hypothesis states, all at
// virtual time t0, re-presented at other instants (every time shifted
// together), under other labels (ParamsID, sequence numbers, toggle
// phase), with other queueing histories (enqueue stamps), in other mixes
// and weights. Whether two presentations may share a rollout depends on
// the configuration — stamps matter under a cross-latency penalty — so a
// key that wrongly merged them would make the warm pool decide
// differently from the fresh one.
type memoWorld struct {
	rng   *rand.Rand
	stock []model.State
	t0    time.Duration
}

func newMemoWorld(seed int64) *memoWorld {
	pr := model.Prior{
		LinkRate:       model.PriorRange{Lo: 10000, Hi: 16000, N: 3},
		CrossFrac:      model.PriorRange{Lo: 0.4, Hi: 0.7, N: 2},
		LossProb:       model.PriorRange{Lo: 0, Hi: 0.2, N: 2},
		BufferCapBits:  model.PriorRange{Lo: 72000, Hi: 108000, N: 2},
		FullnessSteps:  2,
		MeanSwitch:     100 * time.Second,
		PingerMaybeOff: true,
	}
	w := &memoWorld{rng: rand.New(rand.NewSource(seed)), t0: 9 * time.Second}
	w.stock, _ = pr.Enumerate()
	// Mid-run states: a few own packets already queued or delivered.
	for i := range w.stock {
		var sends []model.Send
		for at := time.Duration(w.rng.Intn(2000)) * time.Millisecond; at < w.t0; at += time.Duration(500+w.rng.Intn(3000)) * time.Millisecond {
			sends = append(sends, model.Send{Seq: int64(len(sends)), At: at})
		}
		w.stock[i].Run(w.t0, sends, nil)
	}
	return w
}

// call draws one Decide input. novel makes the situation one no earlier
// call can have keyed (a nanosecond-unique planning lead), which is what
// fills and wraps the table.
func (w *memoWorld) call(novel int) (sup []belief.Hypothesis, pending []model.Send, now time.Duration, seq int64) {
	rng := w.rng
	lead := []time.Duration{0, 10 * time.Millisecond, 250 * time.Millisecond}[rng.Intn(3)]
	if novel > 0 {
		lead = time.Duration(novel) * time.Nanosecond
	}
	shift := time.Duration(rng.Intn(4)) * 7919 * time.Millisecond
	now = w.t0 + lead + shift
	seq = rng.Int63n(1 << 20)
	for n := 6 + rng.Intn(12); len(sup) < n; {
		s := w.stock[rng.Intn(len(w.stock))].Clone()
		s.Rebase(shift)
		s.ParamsID = int32(rng.Intn(1000))
		s.NextToggle += time.Duration(rng.Intn(900)) * time.Millisecond
		s.InService.Seq += int32(seq)
		aged := time.Duration(rng.Intn(3)) * 40 * time.Millisecond
		for i := range s.Queue {
			s.Queue[i].Seq += int32(seq)
			s.Queue[i].EnqueuedAt -= aged
		}
		sup = append(sup, belief.Hypothesis{S: s, W: 0.05 + rng.Float64()})
	}
	switch rng.Intn(3) {
	case 1:
		pending = []model.Send{{Seq: seq - 1, At: now}}
	case 2:
		pending = []model.Send{{Seq: seq - 2, At: now - lead}, {Seq: seq - 1, At: now + 300*time.Millisecond, Bits: 6000}}
	}
	return sup, pending, now, seq
}

// warmEqualsFresh drives calls Decide inputs through one long-lived
// pool and, input by input, through a pool nothing has planned on, and
// requires the two Decisions equal field for field, Gain included.
func warmEqualsFresh(t *testing.T, w *memoWorld, cfg Config, calls int, novelEvery int) MemoStats {
	t.Helper()
	warm := rollout.New(cfg.Workers)
	for c := 1; c <= calls; c++ {
		novel := 0
		if novelEvery > 0 && c%novelEvery == 0 {
			novel = c
		}
		sup, pending, now, seq := w.call(novel)
		cfg.Pool = rollout.New(cfg.Workers)
		want := Decide(sup, pending, now, seq, cfg)
		cfg.Pool = warm
		if got := Decide(sup, pending, now, seq, cfg); got != want {
			t.Fatalf("call %d: warm pool decided %+v, fresh pool %+v", c, got, want)
		}
	}
	return PoolMemoStats(warm)
}

// TestDecideMemoResultNeutral: on generated supports, pending lists and
// instants, a pool whose memo is warm decides exactly what a fresh pool
// does — at either worker width, and with a cross-latency penalty
// (enqueue stamps keyed) — and the memo is in fact being hit and shared
// while it does. The same for bursts — a fleet-shaped support decided
// four times at one instant, a packet more committed each time, every
// other burst the one before re-presented 7.919 s later — across four
// pools: one fresh for every call, which sweeps the burst's first
// decision on behalf of each later one; a warm one, which serves them
// from its memo or derives them from the log the first one left; one
// whose memo and logs are overwritten between the calls, which finds the
// vectors and the logs gone; and one whose memo alone is overwritten,
// which derives every later decision it does not sweep from the log at
// hand. Whichever way a later decision's vector was come by, the Decision
// is the same field for field. The bursts run on fleet-shaped supports
// and on Figure 3's (fig3World), whose links idle.
func TestDecideMemoResultNeutral(t *testing.T) {
	penalty := utility.Config{Alpha: 2.5, Kappa: 20 * time.Second, CrossLatencyPenalty: 0.02}
	for _, tc := range []struct {
		name string
		util utility.Config
	}{
		{"default", utility.Default()},
		{"cross-latency penalty", penalty},
	} {
		for _, workers := range []int{1, 4} {
			cfg := Config{Util: tc.util, Horizon: 15 * time.Second, Workers: workers}
			st := warmEqualsFresh(t, newMemoWorld(11), cfg, 120, 0)
			if st.Hits == 0 || st.Shared == 0 || st.Hits+st.Shared >= st.Lookups {
				t.Errorf("%s, %d workers: memo not exercised both ways: %+v", tc.name, workers, st)
			}
		}
	}

	for _, run := range []struct {
		workers int
		fig3    bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		workers := run.workers
		cfg := Config{Util: utility.Default(), MaxDelay: 4 * time.Second, Grid: 500 * time.Millisecond, Horizon: 12 * time.Second, Workers: workers}
		if run.fig3 {
			cfg = Config{Util: utility.Default(), Workers: workers}
		}
		warm, wiped, forgot := rollout.New(workers), rollout.New(workers), rollout.New(workers)
		rng := rand.New(rand.NewSource(41))
		fig3 := newFig3World(42)
		var sup []belief.Hypothesis
		now := 9 * time.Second
		for burst := 0; burst < 24; burst++ {
			switch {
			case burst%2 == 0 && run.fig3:
				sup, now = fig3.support()
			case burst%2 == 0:
				sup = fleetShaped(rng, now)
			default:
				const shift = 7919 * time.Millisecond
				now += shift
				for i := range sup {
					sup[i].S.Rebase(shift)
				}
			}
			var pending []model.Send
			for depth := 0; depth <= twinDepth; depth++ {
				cfg.Pool = rollout.New(workers)
				want := Decide(sup, pending, now, int64(depth), cfg)
				cfg.Pool = warm
				if got := Decide(sup, pending, now, int64(depth), cfg); got != want {
					t.Fatalf("%d workers, burst %d, %d at now: warm pool decided %+v, fresh pool %+v", workers, burst, depth, got, want)
				}
				cfg.Pool = wiped
				if got := Decide(sup, pending, now, int64(depth), cfg); got != want {
					t.Fatalf("%d workers, burst %d, %d at now: overwritten pool decided %+v, fresh pool %+v", workers, burst, depth, got, want)
				}
				cfg.Pool = forgot
				if got := Decide(sup, pending, now, int64(depth), cfg); got != want {
					t.Fatalf("%d workers, burst %d, %d at now: pool with its memo overwritten decided %+v, fresh pool %+v", workers, burst, depth, got, want)
				}
				// Another key's entry and log now (no real key's verify word is even).
				for _, p := range []*rollout.Pool{wiped, forgot} {
					m := &arenaOf(p).memo
					for slot := range m.keys {
						m.keys[slot] = memoKey{verify: 2}
					}
				}
				for i := range arenaOf(wiped).logs {
					arenaOf(wiped).logs[i].key = memoKey{verify: 2}
				}
				pending = append(pending, model.Send{Seq: int64(depth), At: now})
			}
		}
		ws, os, fs := PoolMemoStats(warm), PoolMemoStats(wiped), PoolMemoStats(forgot)
		// Figure 3's supports are wider and the bursts more numerous: a
		// log may be another hypothesis's by the time a later decision asks.
		if strips := ws.Stripped; ws.Derived == 0 || !run.fig3 && strips != 0 || 10*strips > ws.Derived || ws.Hits == 0 {
			t.Errorf("%d workers, Figure 3's beliefs %v: the warm pool did not derive the bursts' later decisions from the logs at hand, or hit nothing: %+v", workers, run.fig3, ws)
		}
		if os.Derived == 0 || os.Stripped == 0 || os.Hits != 0 {
			t.Errorf("%d workers, Figure 3's beliefs %v: the overwritten pool found something resident, or derived nothing: %+v", workers, run.fig3, os)
		}
		if fs.Derived == 0 || fs.Stripped != 0 || fs.Hits != 0 {
			t.Errorf("%d workers, Figure 3's beliefs %v: the pool with its memo overwritten found something resident, swept a first decision for a later one, or derived nothing: %+v", workers, run.fig3, fs)
		}
	}
}

// TestDecideMemoResultNeutralAfterWrap: the same equivalence while novel
// situations store more vectors than the direct-mapped table has slots.
func TestDecideMemoResultNeutralAfterWrap(t *testing.T) {
	cfg := Config{Util: utility.Default(), Horizon: 4 * time.Second, Workers: 1}
	st := warmEqualsFresh(t, newMemoWorld(5), cfg, 1200, 2)
	if rolled := st.Lookups - st.Hits - st.Shared; rolled < 2<<memoSlotBits || st.Overwrites == 0 || st.Hits == 0 {
		t.Errorf("table did not wrap under hits: %+v", st)
	}
}

// TestDecideMemoVerifyMismatchIsMiss: an entry whose primary word
// matches but whose verify word does not is a detected collision — the
// stored vector (poisoned here, so serving it would flip the decision)
// is never served, and the recomputed one replaces it.
func TestDecideMemoVerifyMismatchIsMiss(t *testing.T) {
	w := newMemoWorld(3)
	sup, pending, now, seq := w.call(0)
	cfg := Config{Horizon: 15 * time.Second, Workers: 1, Pool: rollout.New(1)}
	want := Decide(sup, pending, now, seq, cfg)

	m := &arenaOf(cfg.Pool).memo
	for slot := range m.keys {
		if m.keys[slot] == (memoKey{}) {
			continue
		}
		m.keys[slot].verify ^= 2
		for k := 0; k < m.stride; k++ {
			m.gains[slot*m.stride+k] = 1e12 * float64(k+1)
		}
	}
	before := m.MemoStats
	if got := Decide(sup, pending, now, seq, cfg); got != want {
		t.Fatalf("collided entries were served: %+v, want %+v", got, want)
	}
	if m.Hits != before.Hits || m.VerifyMismatches == before.VerifyMismatches {
		t.Fatalf("collisions not detected as misses: before %+v after %+v", before, m.MemoStats)
	}
	// The recomputed vectors overwrote the poisoned ones.
	hits := m.Hits
	if got := Decide(sup, pending, now, seq, cfg); got != want || m.Hits == hits {
		t.Fatalf("after repair: %+v (hits %d -> %d), want %+v served from the memo", got, hits, m.Hits, want)
	}
}

// TestLossSiblingsShareOneRollout: hypotheses that differ only in their
// last-mile loss probability — Figure 3's grid, 0 … 0.2 — roll once
// between them when the call has no latency penalty: loss reaches no
// queue and every value is linear in survival, so the rollout runs at
// survival 1 and reduce weighs each sibling by W·(1−p). The Decision is
// the one reduce gives over each sibling's own sweep at its own survival,
// within 1e-9 of a packet's bits in Gain and exactly in SendNow and
// WakeAt. Under a penalty survival stays inside the rollout: five
// sweeps, and the Decision exactly the reference's.
func TestLossSiblingsShareOneRollout(t *testing.T) {
	sup, now := newFig3World(42).support()
	s := sup[0].S
	for _, h := range sup {
		if h.S.Serving && h.S.PingerOn {
			s = h.S
			break
		}
	}
	var sibs []belief.Hypothesis
	for k := 0; k < 5; k++ {
		v := s.Clone()
		p := v.P.Params
		p.LossProb = 0.05 * float64(k)
		v.SetParams(p)
		v.ParamsID += int32(k)
		sibs = append(sibs, belief.Hypothesis{S: v, W: 0.1 + 0.05*float64(k)})
	}
	for _, tc := range []struct {
		util  utility.Config
		swept int64
	}{
		{utility.Default(), 1},
		{utility.Config{Alpha: 1, Kappa: utility.Default().Kappa, CrossLatencyPenalty: 0.02}, 5},
	} {
		cfg := Config{Util: tc.util, Workers: 1, Pool: rollout.New(1)}
		got := Decide(sibs, nil, now, 7, cfg)
		st := PoolMemoStats(cfg.Pool)
		if st.Rolled() != tc.swept || st.Shared != 5-tc.swept {
			t.Errorf("penalty %v: %d swept, %d shared; want %d, %d", tc.util.CrossLatencyPenalty, st.Rolled(), st.Shared, tc.swept, 5-tc.swept)
		}
		cfg = cfg.withDefaults()
		hyps := topK(sibs, cfg.MaxHyps)
		candidates := int(cfg.MaxDelay/cfg.Grid) + 1
		var want []float64
		for i := range hyps {
			want = append(want, refSweep(&hyps[i], hyps[i].S.P.LossProb, nil, now, 7, cfg)...)
		}
		ref := reduce(hyps, want, candidates, now, cfg.Grid, true) // the rows hold survival
		tol := 1e-9 * float64(s.P.PktBits())
		if tc.swept > 1 {
			tol = 0
		}
		if got.SendNow != ref.SendNow || got.WakeAt != ref.WakeAt || !(math.Abs(got.Gain-ref.Gain) <= tol) {
			t.Errorf("penalty %v: decided %+v, the siblings' own sweeps %+v (Gain allowed %g)", tc.util.CrossLatencyPenalty, got, ref, tol)
		}
	}
}
