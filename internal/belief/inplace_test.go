package belief

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/rollout"
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
					lw, matched = likelihood(br.Events, segAcks, br.S.P.LossProb)
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
	stats.N, stats.Classes = len(r.hyps), refClasses(r.hyps)
	return stats
}

// refClasses counts the distinct states of a support
// (model.State.SameClass).
func refClasses(hyps []Hypothesis) int {
	byHead := make(map[uint64][]*model.State)
	n := 0
outer:
	for i := range hyps {
		s := &hyps[i].S
		h := s.ClassHead()
		for _, o := range byHead[h] {
			if o.SameClass(s) {
				continue outer
			}
		}
		byHead[h] = append(byHead[h], s)
		n++
	}
	return n
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

// smallPrior is a small but non-trivial prior: several link rates and
// loss levels, so updates reject, reweigh, fork, and compact.
func smallPrior() []model.State {
	p := model.Prior{
		LinkRate:       model.PriorRange{Lo: 10000, Hi: 16000, N: 3},
		CrossFrac:      model.PriorRange{Lo: 0.4, Hi: 0.7, N: 2},
		LossProb:       model.PriorRange{Lo: 0, Hi: 0.2, N: 2},
		BufferCapBits:  model.PriorRange{Lo: 72000, Hi: 108000, N: 2},
		FullnessSteps:  2,
		MeanSwitch:     100 * time.Second,
		PingerMaybeOff: true,
	}
	states, _ := p.Enumerate()
	return states
}

// forkyPrior is smallPrior with a gate that switches often enough
// for forks to carry weight, and every third state on a 250 ms
// opportunity grid: the belief segments on the first state's 1 s tick,
// so those states fork up to four times inside one segment.
func forkyPrior() []model.State {
	states := smallPrior()
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
	return genScriptOn(rng, truth, steps, impossible)
}

// fig3Truth is Figure 3's network (Fig2Actual: p = 0.2, so some packets
// go unacknowledged) with its gate toggling every 20 s.
func fig3Truth(seed int64) *model.Truth {
	return model.NewTruth(model.Fig2Actual(), true, model.GateSquareWave, 20*time.Second, rand.New(rand.NewSource(seed+1)))
}

// fig3LossPrior is Figure 3's prior with all five of its loss points and
// a coarser grid elsewhere that still holds Fig2Actual: each grid point
// has four loss siblings, which advance alike until an observation or
// the floor splits their weights.
func fig3LossPrior() []model.State {
	pr := model.Fig3Prior()
	pr.LinkRate.N, pr.CrossFrac.N, pr.FullnessSteps = 4, 2, 2
	states, _ := pr.Enumerate()
	return states
}

// genScriptOn draws a script of steps wakes against truth.
func genScriptOn(rng *rand.Rand, truth *model.Truth, steps int, impossible bool) script {
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

// queueOwners checks, for beliefs that share one pool, that no two
// classes share queue storage and that every queue buffer of the pool
// arena's slots — live or dead, up to capacity — belongs to one slot and
// is none of the beliefs' queue arrays (queueArrays).
func queueOwners(t *testing.T, bs ...*Exact) {
	t.Helper()
	owners := make(map[*model.QPkt]string)
	for i, b := range bs {
		queueArrays(t, fmt.Sprintf("belief %d", i), b, owners)
	}
	for half, hyps := range bs[0].arena().slots {
		hyps = hyps[:cap(hyps)]
		for i := range hyps {
			q := hyps[i].S.Queue
			if cap(q) == 0 {
				continue
			}
			own(t, owners, unsafe.SliceData(q[:cap(q)]), fmt.Sprintf("slots[%d][%d]", half, i))
		}
	}
}

// queueArrays checks b's queue storage: every page is pageLen entries;
// every class's queue is a window of its own that cannot be appended
// past, on one of b's pages or long arrays; no two windows overlap; and
// each long array, ceilPow2 of its queue, holds exactly one queue, one
// longer than a page. It records each of b's arrays in owners under
// name, failing on one another owner holds.
func queueArrays(t *testing.T, name string, b *Exact, owners map[*model.QPkt]string) {
	t.Helper()
	const size = unsafe.Sizeof(model.QPkt{})
	arrays := slices.Concat(b.pages, b.long)
	on := make([]int, len(arrays))
	type span struct{ lo, hi uintptr }
	var spans []span
	for i, a := range arrays {
		if long := i >= len(b.pages); !long && len(a) != pageLen || long && (len(a) <= pageLen || len(a)&(len(a)-1) != 0) {
			t.Fatalf("%s's queue array %d of %d holds %d entries (pages: %d)", name, i, len(arrays), len(a), len(b.pages))
		}
		own(t, owners, unsafe.SliceData(a), fmt.Sprintf("%s's queue array %d", name, i))
	}
	for k := range b.cls {
		s := &b.cls[k].S
		q := s.Queue
		if s.QHead != 0 || len(q) != cap(q) {
			t.Fatalf("%s: class %d's queue is [%d:%d] of %d entries, not a window of its own", name, k, s.QHead, len(q), cap(q))
		}
		if len(q) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(q)))
		hi := lo + uintptr(len(q))*size
		i := slices.IndexFunc(arrays, func(a []model.QPkt) bool {
			base := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
			return lo >= base && hi <= base+uintptr(len(a))*size
		})
		if i < 0 {
			t.Fatalf("%s: class %d's queue of %d entries lies on none of its %d queue arrays", name, k, len(q), len(arrays))
		}
		if on[i]++; i >= len(b.pages) && (on[i] > 1 || len(q) <= pageLen || ceilPow2(len(q)) != len(arrays[i])) {
			t.Fatalf("%s: class %d's queue of %d entries shares or misfits the long array of %d", name, k, len(q), len(arrays[i]))
		}
		spans = append(spans, span{lo, hi})
	}
	for i, a := range arrays {
		if on[i] == 0 {
			t.Fatalf("%s holds queue array %d of %d entries and no queue lies on it", name, i, len(a))
		}
	}
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s: two class queues overlap", name)
		}
	}
}

// own records p as owner's in owners, failing if another holds it.
func own(t *testing.T, owners map[*model.QPkt]string, p *model.QPkt, owner string) {
	t.Helper()
	if other, ok := owners[p]; ok {
		t.Fatalf("%s and %s share a queue array", other, owner)
	}
	owners[p] = owner
}

// TestExactMatchesCloneBasedReference: over generated schedules the
// class-based update yields the per-hypothesis reference's support —
// same states, same order, bit-equal weights — and the same UpdateStats,
// and after every update each queue buffer has one owner. The cases
// cover hard and soft matching, Relax, Recover (whose re-seeds leave
// NextToggle off the tick grid), several forks inside a segment, a cap
// that sorts, a prior whose classes are all single hypotheses, and — each required to end some update with fewer classes
// than hypotheses — Figure 3's five loss points against its lossy
// network, a floor that splits loss siblings' classes, and snapshots
// restored halfway whose resumed supports keep matching. Each case runs
// one belief on a pool of its own (w1) and four that share one pool
// (w4), as a fleet's members do, each driven through the schedule in
// turn, so each update finds the arena and its stores as another
// belief left them; each of the four must match the reference.
func TestExactMatchesCloneBasedReference(t *testing.T) {
	forky, fig3 := forkyPrior(), fig3LossPrior()
	// lone keeps forkyPrior's states of one loss and fullness point: no
	// two grid points share dynamics, so no two classes can come to hold
	// equal states and classify never compares them.
	var lone []model.State
	for _, st := range forky {
		if st.P.LossProb == 0 && st.P.InitFullBits == 0 {
			lone = append(lone, st)
		}
	}
	cases := []struct {
		name       string
		states     []model.State
		cfg        Config
		impossible bool
		// fig3 drives the belief with fig3Truth, not a state of the prior.
		fig3  bool
		steps int
		// resume snapshots the belief halfway and carries on with its
		// restore.
		resume bool
		// split requires an update that floors some of a class's loss
		// siblings and keeps others.
		split bool
		// shared requires an update that ends with fewer classes than
		// hypotheses; single, that every class is one hypothesis.
		shared, single bool
	}{
		{name: "hard", states: forky, steps: 40},
		{name: "hard-relax", states: forky, cfg: Config{Relax: true}, impossible: true, steps: 40},
		{name: "hard-recover", states: forky, cfg: Config{Recover: true}, impossible: true, steps: 40},
		{name: "hard-relax-cap", states: forky, cfg: Config{Relax: true, MaxHyps: 40}, impossible: true, steps: 40},
		{name: "soft-relax", states: forky, cfg: Config{SoftSigma: 100 * time.Millisecond, Relax: true}, impossible: true, steps: 40},
		{name: "soft-recover-cap", states: forky, cfg: Config{SoftSigma: 50 * time.Millisecond, Recover: true, MaxHyps: 64}, impossible: true, steps: 40},
		{name: "hard-relax-lone", states: lone, cfg: Config{Relax: true}, impossible: true, steps: 40, single: true},
		{name: "hard-recover-resume", states: forky, cfg: Config{Recover: true}, impossible: true, steps: 40, resume: true, shared: true},
		{name: "fig3", states: fig3, fig3: true, steps: 80, shared: true},
		{name: "fig3-floor", states: fig3, cfg: Config{SoftSigma: 100 * time.Millisecond, Relax: true, MinWeight: 2e-3}, fig3: true, steps: 80, split: true, shared: true},
		{name: "fig3-recover-resume", states: fig3, cfg: Config{Recover: true}, impossible: true, fig3: true, steps: 80, resume: true, shared: true},
	}
	for _, tc := range cases {
		for _, width := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/w%d/seed%d", tc.name, width, seed), func(t *testing.T) {
					cfg := tc.cfg
					cfg.Pool = rollout.New()
					ref := newRefExact(tc.states, cfg)
					bs := make([]*Exact, width)
					for i := range bs {
						bs[i] = NewExact(tc.states, cfg)
					}
					sc := genScript(seed, tc.states, tc.steps, tc.impossible)
					if tc.fig3 {
						sc = genScriptOn(rand.New(rand.NewSource(seed)), fig3Truth(seed), tc.steps, tc.impossible)
					}
					var forks, multi, reseeds, shared, split int
					for k, st := range sc {
						if tc.resume && k == len(sc)/2 {
							for i, b := range bs {
								r, err := Restore(tc.states, cfg, b.Snapshot())
								if err != nil {
									t.Fatalf("step %d: Restore: %v", k, err)
								}
								if r.Lifetime() != b.Lifetime() {
									t.Fatalf("step %d: restored lifetime %+v, belief's %+v", k, r.Lifetime(), b.Lifetime())
								}
								sameSupportExactly(t, k, ref.hyps, r.Support())
								bs[i] = r
							}
							queueOwners(t, bs...)
						}
						for _, s := range st.sends {
							ref.RecordSend(s)
						}
						want := ref.Update(st.now, append([]packet.Ack(nil), st.acks...))
						pre := len(bs[0].Support())
						for _, b := range bs {
							for _, s := range st.sends {
								b.RecordSend(s)
							}
							if got := b.Update(st.now, append([]packet.Ack(nil), st.acks...)); want != got {
								t.Fatalf("step %d: stats %+v, reference %+v", k, got, want)
							}
							sameSupportExactly(t, k, ref.hyps, b.Support())
						}
						queueOwners(t, bs...)
						b, got := bs[0], want // every belief's stats are the reference's
						if got.Branches > pre {
							forks++
						}
						if got.Branches > 3*pre {
							multi++
						}
						if got.Classes < got.N {
							shared++
						}
						if tc.single && (b.siblings || got.Classes != got.N) {
							t.Fatalf("step %d: %d hypotheses in %d classes (siblings %v), want one class each", k, got.N, got.Classes, b.siblings)
						}
						if got.Floored > 0 && splitSiblings(b.Support()) {
							split++
						}
						reseeds += got.Reseeded
					}
					if forks == 0 || multi == 0 {
						t.Fatalf("schedule exercised %d forking updates, %d with several forks per hypothesis", forks, multi)
					}
					if tc.shared && shared == 0 {
						t.Fatal("no update ended with a class of several hypotheses")
					}
					// (Soft matching crushes a weight, it never zeroes one.)
					if tc.cfg.Recover && tc.cfg.SoftSigma == 0 && reseeds == 0 {
						t.Fatal("schedule never re-seeded")
					}
					if tc.split && split == 0 {
						t.Fatal("the floor never split a class's loss siblings")
					}
				})
			}
		}
	}
}

// splitSiblings reports whether some class of the support holds some but
// not all of one parameter point's loss siblings — hypotheses equal but
// for LossProb — that the prior enumerated: a soft-matched belief
// rejects none, so the floor parted them.
func splitSiblings(sup []Hypothesis) bool {
	type point struct {
		cls  int
		rest model.Params
	}
	var classes []*model.State
	count := make(map[point]int)
	for i := range sup {
		s := &sup[i].S
		c := slices.IndexFunc(classes, s.SameClass)
		if c < 0 {
			c = len(classes)
			classes = append(classes, s)
		}
		rest := s.P.Params
		rest.LossProb = 0
		count[point{c, rest}]++
	}
	for _, n := range count {
		if n > 1 && n < len(model.Fig3Prior().LossProb.Values()) {
			return true
		}
	}
	return false
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

// TestExactHypothesesOwnTheirQueues: each support hypothesis's queue is
// its own class's, whatever moves, merges, floors, forks and class merges
// came before — scribbling over one class's whole queue buffer changes
// every hypothesis of that class with packets queued and no hypothesis of
// another. The schedule ends with classes of several hypotheses, so the
// aliasing is checked, not vacuous.
func TestExactHypothesesOwnTheirQueues(t *testing.T) {
	states := fig3LossPrior()
	b := NewExact(states, Config{Relax: true, MaxHyps: 48})
	for _, st := range genScriptOn(rand.New(rand.NewSource(4)), fig3Truth(4), 30, true) {
		for _, s := range st.sends {
			b.RecordSend(s)
		}
		b.Update(st.now, st.acks)
		queueOwners(t, b)
	}
	sup := b.Support()
	shared := make([]int, len(b.cls))
	for i := range sup {
		c := b.mem[i].cls
		q, own := sup[i].S.Queue, b.cls[c].S.Queue
		if unsafe.SliceData(q) != unsafe.SliceData(own) || len(q) != len(own) || sup[i].S.QHead != b.cls[c].S.QHead {
			t.Fatalf("hypothesis %d's queue is not its class %d's", i, c)
		}
		if sup[i].S.QLen() > 0 {
			shared[c]++
		}
	}
	if slices.Max(shared) < 2 {
		t.Fatalf("the schedule ends with %d hypotheses in %d classes and no class of several with packets queued", len(sup), len(b.cls))
	}
	keys := make([]string, len(sup))
	for i := range sup {
		keys[i] = sup[i].S.Key()
	}
	for c := range b.cls {
		q := b.cls[c].S.Queue[:cap(b.cls[c].S.Queue)]
		saved := append([]model.QPkt(nil), q...)
		for j := range q {
			q[j] = model.QPkt{Own: true, Seq: -7, Bits: 1}
		}
		for j := range sup {
			mine := b.mem[j].cls == int32(c) && sup[j].S.QLen() > 0
			if changed := sup[j].S.Key() != keys[j]; changed != mine {
				t.Fatalf("writing class %d's queue changed hypothesis %d: %v, want %v", c, j, changed, mine)
			}
		}
		copy(q, saved)
	}
}

// TestExactUpdateSteadyStateAllocs: once its buffers have grown, an
// update that forks nothing — the wake between two switch opportunities,
// nine in ten on the serving path — allocates nothing, sends,
// acknowledgments and rejections included.
func TestExactUpdateSteadyStateAllocs(t *testing.T) {
	states := smallPrior()
	b := NewExact(states, Config{})
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
