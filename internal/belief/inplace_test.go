package belief

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
	"unsafe"

	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// refAdvanceEnum is model.AdvanceEnum as it stood before the in-place
// walk (an explicit work stack, a clone per fork, copy-on-fork event
// prefixes): the reference the differential tests compare against.
func refAdvanceEnum(s model.State, until time.Duration, sends []model.Send) []model.Branch {
	type item struct {
		br model.Branch
		si int
	}
	consume := func(si int, segEnd time.Duration) ([]model.Send, int) {
		hi := si
		for hi < len(sends) && sends[hi].At <= segEnd {
			hi++
		}
		return sends[si:hi], hi
	}
	work := []item{{br: model.Branch{S: s.Clone(), W: 1}}}
	var done []model.Branch
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		st := &it.br.S
		if st.SwitchTick <= 0 || st.P.MeanSwitch <= 0 || st.NextToggle > until {
			seg, _ := consume(it.si, until)
			st.Run(until, seg, &it.br.Events)
			done = append(done, it.br)
			continue
		}
		at := st.NextToggle
		seg, si := consume(it.si, at)
		st.Run(at, seg, &it.br.Events)
		it.si = si
		st.NextToggle += st.SwitchTick
		q := model.ToggleProb(st.SwitchTick, st.P.MeanSwitch)
		if q <= 0 {
			work = append(work, it)
			continue
		}
		flipped := item{
			br: model.Branch{
				S:      st.Clone(),
				W:      it.br.W * q,
				Events: it.br.Events[:len(it.br.Events):len(it.br.Events)],
			},
			si: si,
		}
		flipped.br.S.Toggle()
		it.br.W *= 1 - q
		work = append(work, it, flipped)
	}
	return done
}

// refExact is Exact as it stood before the in-place update: every
// segment clones each hypothesis through refAdvanceEnum, copies the
// survivors into a second slice and compacts and floors by value.
type refExact struct {
	cfg     Config
	hyps    []Hypothesis
	now     time.Duration
	pending []model.Send
	prior   []model.State
	recent  map[int64]time.Duration
}

func newRefExact(states []model.State, cfg Config) *refExact {
	r := &refExact{cfg: cfg.withDefaults(), recent: make(map[int64]time.Duration)}
	for _, s := range states {
		r.hyps = append(r.hyps, Hypothesis{S: s.Clone(), W: 1 / float64(len(states))})
		r.prior = append(r.prior, s.Clone())
	}
	return r
}

func (r *refExact) RecordSend(s model.Send) { r.pending = append(r.pending, s) }

func (r *refExact) Update(now time.Duration, acks []packet.Ack) UpdateStats {
	nSends := 0
	for nSends < len(r.pending) && r.pending[nSends].At <= now {
		nSends++
	}
	sends := r.pending[:nSends]
	sort.Slice(acks, func(i, j int) bool { return acks[i].ReceivedAt < acks[j].ReceivedAt })
	soft := r.cfg.SoftSigma > 0
	if soft {
		for _, a := range acks {
			r.recent[a.Seq] = a.ReceivedAt
		}
		for seq, at := range r.recent {
			if at < now-recentAckWindow {
				delete(r.recent, seq)
			}
		}
	}
	tick := model.DefaultSwitchTick
	if r.hyps[0].S.SwitchTick > 0 {
		tick = r.hyps[0].S.SwitchTick
	}
	var stats UpdateStats
	si, ai := 0, 0
	for segStart := r.now; ; {
		segEnd := now
		if boundary := segStart - segStart%tick + tick; boundary < segEnd {
			segEnd = boundary
		}
		sHi := si
		for sHi < len(sends) && sends[sHi].At <= segEnd {
			sHi++
		}
		aHi := ai
		for aHi < len(acks) && acks[aHi].ReceivedAt <= segEnd {
			aHi++
		}
		segAcks := make(map[int64]time.Duration)
		for _, a := range acks[ai:aHi] {
			segAcks[a.Seq] = a.ReceivedAt
		}
		brs := make([][]model.Branch, len(r.hyps))
		lws := make([][]float64, len(r.hyps))
		for i := range r.hyps {
			brs[i] = refAdvanceEnum(r.hyps[i].S, segEnd, sends[si:sHi])
			for _, br := range brs[i] {
				var lw float64
				if soft {
					lw = softLikelihood(br.Events, r.recent, now, br.S.P.LossProb, r.cfg)
				} else {
					var matched int
					lw, matched = likelihood(br.Events, segAcks, br.S.P.LossProb, r.cfg)
					if matched < len(segAcks) {
						lw = 0
					}
				}
				lws[i] = append(lws[i], lw)
			}
		}
		var next []Hypothesis
		var total float64
		for i := range r.hyps {
			for j, br := range brs[i] {
				stats.Branches++
				w := r.hyps[i].W * br.W * lws[i][j]
				if !(w > 0) {
					stats.Rejected++
					continue
				}
				next = append(next, Hypothesis{S: br.S, W: w})
				total += w
			}
		}
		if !(total > 0) {
			switch {
			case r.cfg.Recover:
				stats.Reseeded++
				next = next[:0]
				for i := range r.prior {
					s := r.prior[i].Clone()
					s.Rebase(segEnd)
					next = append(next, Hypothesis{S: s, W: 1 / float64(len(r.prior))})
				}
				total = 1
			case r.cfg.Relax:
				stats.Relaxed++
				next, total = next[:0], 0
				for i := range r.hyps {
					for _, br := range brs[i] {
						w := r.hyps[i].W * br.W
						if w <= 0 {
							continue
						}
						next = append(next, Hypothesis{S: br.S, W: w})
						total += w
					}
				}
			default:
				panic("reference: all hypotheses rejected")
			}
		}
		for i := range next {
			next[i].W /= total
		}
		next, merged := refCompact(next)
		stats.Merged += merged
		next, floored := refFloorAndCap(next, r.cfg.MinWeight, r.cfg.MaxHyps)
		stats.Floored += floored
		r.hyps = next
		si, ai = sHi, aHi
		if segEnd == now {
			break
		}
		segStart = segEnd
	}
	r.now = now
	r.pending = append(r.pending[:0], r.pending[nSends:]...)
	stats.N = len(r.hyps)
	return stats
}

func refCompact(hyps []Hypothesis) ([]Hypothesis, int) {
	byKey := make(map[string]int)
	var out []Hypothesis
	merged := 0
	for _, h := range hyps {
		k := h.S.Key()
		if i, ok := byKey[k]; ok {
			out[i].W += h.W
			merged++
			continue
		}
		byKey[k] = len(out)
		out = append(out, h)
	}
	return out, merged
}

func refFloorAndCap(hyps []Hypothesis, minW float64, maxN int) ([]Hypothesis, int) {
	var out []Hypothesis
	dropped := 0
	for _, h := range hyps {
		if h.W < minW {
			dropped++
			continue
		}
		out = append(out, h)
	}
	if len(out) == 0 {
		out, dropped = hyps, 0
	}
	if len(out) > maxN {
		sort.Slice(out, func(i, j int) bool { return out[i].W > out[j].W })
		dropped += len(out) - maxN
		out = out[:maxN]
	}
	var total float64
	for _, h := range out {
		total += h.W
	}
	for i := range out {
		out[i].W /= total
	}
	return out, dropped
}

// forkyPrior is parallelPrior with a gate that switches often enough
// for forks to carry weight, and every third state on a 250 ms
// opportunity grid: the belief segments on the first state's 1 s tick,
// so those states fork up to four times inside one segment.
func forkyPrior() []model.State {
	states := parallelPrior()
	for i := range states {
		p := states[i].P.Params
		p.MeanSwitch = 4 * time.Second
		states[i].SetParams(p)
		if i%3 == 1 {
			states[i].SwitchTick = 250 * time.Millisecond
			states[i].NextToggle = 250 * time.Millisecond
		}
	}
	return states
}

// script is a generated send/ack schedule: what a sender over a real
// (sampled) network would feed its belief, plus now and then an
// acknowledgment nothing can explain.
type script []scriptStep

type scriptStep struct {
	sends []model.Send
	now   time.Duration
	acks  []packet.Ack
}

func genScript(seed int64, states []model.State, steps int, impossible bool) script {
	rng := rand.New(rand.NewSource(seed))
	truthP := states[rng.Intn(len(states))].P.Params
	truth := model.NewTruth(truthP, true, model.GateFixed, 0, rand.New(rand.NewSource(seed+1)))
	var sc script
	var now time.Duration
	var seq int64
	for k := 0; k < steps; k++ {
		// Mostly sub-tick wakes, now and then a quiet window spanning
		// several segments.
		step := time.Duration(20+rng.Intn(600)) * time.Millisecond
		if rng.Intn(6) == 0 {
			step += time.Duration(1+rng.Intn(3)) * time.Second
		}
		var sends []model.Send
		for at := now + time.Duration(1+rng.Intn(300))*time.Millisecond; at <= now+step && len(sends) < 3; at += time.Duration(40+rng.Intn(400)) * time.Millisecond {
			sends = append(sends, model.Send{Seq: seq, At: at})
			seq++
		}
		now += step
		var acks []packet.Ack
		for _, ev := range truth.AdvanceTo(now, sends) {
			if ev.Kind == model.OwnDelivered {
				acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
			}
		}
		if impossible && rng.Intn(7) == 0 {
			acks = append(acks, packet.Ack{Seq: 1 << 40, ReceivedAt: now - time.Duration(rng.Intn(int(step)))})
		}
		// Unsorted on purpose: Update orders them.
		rng.Shuffle(len(acks), func(i, j int) { acks[i], acks[j] = acks[j], acks[i] })
		sc = append(sc, scriptStep{sends, now, acks})
	}
	return sc
}

func sameSupportExactly(t *testing.T, step int, want, got []Hypothesis) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("step %d: support %d, reference %d", step, len(got), len(want))
	}
	for i := range want {
		if want[i].S.Key() != got[i].S.Key() {
			t.Fatalf("step %d: hypothesis %d is a different state than the reference's", step, i)
		}
		if !want[i].S.EqualDynamic(&got[i].S) {
			t.Fatalf("step %d: hypothesis %d differs from the reference in its enqueue stamps", step, i)
		}
		if math.Float64bits(want[i].W) != math.Float64bits(got[i].W) {
			t.Fatalf("step %d: hypothesis %d weight %v, reference %v", step, i, got[i].W, want[i].W)
		}
	}
}

// queueOwners maps every queue backing array reachable from b — live
// hypotheses, the dead slots behind them and the spare buffer — to the
// slot holding it, failing on the first array two slots share.
func queueOwners(t *testing.T, b *Exact) {
	t.Helper()
	owners := make(map[*model.QPkt]string)
	walk := func(name string, hyps []Hypothesis) {
		hyps = hyps[:cap(hyps)]
		for i := range hyps {
			q := hyps[i].S.Queue
			if cap(q) == 0 {
				continue
			}
			p := unsafe.SliceData(q[:cap(q)])
			slot := fmt.Sprintf("%s[%d]", name, i)
			if other, ok := owners[p]; ok {
				t.Fatalf("%s and %s share a queue backing array", other, slot)
			}
			owners[p] = slot
		}
	}
	walk("hyps", b.hyps)
	walk("next", b.next)
}

// TestExactMatchesCloneBasedReference: over generated schedules the
// in-place update yields the reference's support — same states, same
// order, bit-equal weights — and the same UpdateStats, for hard and soft
// matching, Relax, Recover (whose re-seeds leave NextToggle off the tick
// grid), several forks inside a segment, a cap that sorts, and one and
// four workers; and after every update each queue buffer has one owner.
func TestExactMatchesCloneBasedReference(t *testing.T) {
	states := forkyPrior()
	cases := []struct {
		name       string
		cfg        Config
		impossible bool
	}{
		{"hard", Config{}, false},
		{"hard-relax", Config{Relax: true}, true},
		{"hard-recover", Config{Recover: true}, true},
		{"hard-relax-cap", Config{Relax: true, MaxHyps: 40}, true},
		{"soft-relax", Config{SoftSigma: 100 * time.Millisecond, Relax: true}, true},
		{"soft-recover-cap", Config{SoftSigma: 50 * time.Millisecond, Recover: true, MaxHyps: 64}, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/w%d/seed%d", tc.name, workers, seed), func(t *testing.T) {
					cfg := tc.cfg
					cfg.Workers = workers
					ref := newRefExact(states, cfg)
					b := NewExact(states, cfg)
					var forks, multi, reseeds int
					for k, st := range genScript(seed, states, 40, tc.impossible) {
						for _, s := range st.sends {
							ref.RecordSend(s)
							b.RecordSend(s)
						}
						pre := len(b.Support())
						want := ref.Update(st.now, append([]packet.Ack(nil), st.acks...))
						got := b.Update(st.now, append([]packet.Ack(nil), st.acks...))
						if want != got {
							t.Fatalf("step %d: stats %+v, reference %+v", k, got, want)
						}
						sameSupportExactly(t, k, ref.hyps, b.Support())
						queueOwners(t, b)
						if got.Branches > pre {
							forks++
						}
						if got.Branches > 3*pre {
							multi++
						}
						reseeds += got.Reseeded
					}
					if forks == 0 || multi == 0 {
						t.Fatalf("schedule exercised %d forking updates, %d with several forks per hypothesis", forks, multi)
					}
					// (Soft matching crushes a weight, it never zeroes one.)
					if tc.cfg.Recover && tc.cfg.SoftSigma == 0 && reseeds == 0 {
						t.Fatal("schedule never re-seeded")
					}
				})
			}
		}
	}
}

// TestAdvanceEnumMatchesStackReference: model.AdvanceEnum, now a wrapper
// over State.Enumerate, returns the stack-based walk's branches — same
// order, weights, states and events — with up to three forks in a window.
func TestAdvanceEnumMatchesStackReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range forkyPrior() {
		var sends []model.Send
		for at, seq := time.Duration(0), int64(0); at < 900*time.Millisecond; at, seq = at+time.Duration(50+rng.Intn(300))*time.Millisecond, seq+1 {
			sends = append(sends, model.Send{Seq: seq, At: at})
		}
		until := time.Duration(100+rng.Intn(900)) * time.Millisecond
		want, got := refAdvanceEnum(s, until, sends), model.AdvanceEnum(s, until, sends)
		if len(want) != len(got) {
			t.Fatalf("%d branches, reference %d", len(got), len(want))
		}
		for j := range want {
			if want[j].W != got[j].W || want[j].S.Key() != got[j].S.Key() || !want[j].S.EqualDynamic(&got[j].S) {
				t.Fatalf("branch %d differs from the reference", j)
			}
			if len(want[j].Events) != len(got[j].Events) {
				t.Fatalf("branch %d: %d events, reference %d", j, len(got[j].Events), len(want[j].Events))
			}
			for e := range want[j].Events {
				if want[j].Events[e] != got[j].Events[e] {
					t.Fatalf("branch %d event %d: %+v, reference %+v", j, e, got[j].Events[e], want[j].Events[e])
				}
			}
		}
	}
}

// TestExactHypothesesOwnTheirQueues: scribbling over one live
// hypothesis's whole queue buffer changes no other hypothesis, whatever
// moves, merges, floors and forks came before.
func TestExactHypothesesOwnTheirQueues(t *testing.T) {
	states := forkyPrior()
	b := NewExact(states, Config{Relax: true, MaxHyps: 48, Workers: 4})
	for _, st := range genScript(4, states, 30, true) {
		for _, s := range st.sends {
			b.RecordSend(s)
		}
		b.Update(st.now, st.acks)
		queueOwners(t, b)
	}
	sup := b.Support()
	keys := make([]string, len(sup))
	for i := range sup {
		keys[i] = sup[i].S.Key()
	}
	for i := range sup {
		q := sup[i].S.Queue[:cap(sup[i].S.Queue)]
		saved := append([]model.QPkt(nil), q...)
		for j := range q {
			q[j] = model.QPkt{Own: true, Seq: -7, Bits: 1}
		}
		for j := range sup {
			if j != i && sup[j].S.Key() != keys[j] {
				t.Fatalf("writing hypothesis %d's queue changed hypothesis %d", i, j)
			}
		}
		copy(q, saved)
	}
}

// TestExactUpdateSteadyStateAllocs: once its buffers have grown, an
// update that forks nothing — the wake between two switch opportunities,
// nine in ten on the serving path — allocates nothing on one worker,
// sends, acknowledgments and rejections included.
func TestExactUpdateSteadyStateAllocs(t *testing.T) {
	states := parallelPrior()
	b := NewExact(states, Config{Workers: 1})
	truth := model.NewTruth(states[len(states)-1].P.Params, true, model.GateFixed, 0, rand.New(rand.NewSource(3)))
	// 180 wakes of 5 ms stay short of the first opportunity at 1 s.
	const warm, measured = 100, 64
	type wake struct {
		send *model.Send
		acks []packet.Ack
	}
	var wakes [warm + measured + 1]wake
	for k := range wakes {
		now := time.Duration(k+1) * 5 * time.Millisecond
		var sends []model.Send
		if k%8 == 0 {
			sends = []model.Send{{Seq: int64(k), At: now - time.Millisecond}}
			wakes[k].send = &sends[0]
		}
		for _, ev := range truth.AdvanceTo(now, sends) {
			if ev.Kind == model.OwnDelivered {
				wakes[k].acks = append(wakes[k].acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
			}
		}
	}
	k := 0
	step := func() {
		if w := wakes[k]; w.send != nil {
			b.RecordSend(*w.send)
		}
		k++
		b.Update(time.Duration(k)*5*time.Millisecond, wakes[k-1].acks)
	}
	for k < warm {
		step()
	}
	if allocs := testing.AllocsPerRun(measured, step); allocs != 0 {
		t.Fatalf("steady-state Exact.Update allocates %v times per call, want 0", allocs)
	}
	if b.Cum.Rejected == 0 {
		t.Fatal("schedule rejected nothing: the reduce's move path went unexercised")
	}
}
