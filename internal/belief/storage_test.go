package belief_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/rollout"
)

// TestStorageFollowsTheClasses: between updates a belief holds what its
// classes need, over generated updates on a fleet member's prior and on
// Figure 3's loss prior, each alone on a pool: exactly ⌈classes /
// HdrPageLen⌉ header pages, their entries past the classes cleared,
// whether the classes are the support (every class one hypothesis, as on
// a fleet member) or share loss siblings; queue arrays of at least the
// entries in use and at most twice them plus one page, each a page or a
// power-of-two array holding one queue longer than a page; and every
// page and array it gives back in the pool's stores, which have made
// exactly what the belief holds and they keep. Most reads find the kind
// of support the prior is for and packets queued, so neither bound is
// vacuous.
//
// Storage churns little: over the generated updates, and on a known
// link whose queue swings across 16 entries, the queue arrays taken (an
// array held at one read and not at the one before, from the pool's
// store or made) are at most the stated number in all, and a belief
// keeps the header pages it still needs, in their order, taking only
// those its classes grew by.
func TestStorageFollowsTheClasses(t *testing.T) {
	fl := fleet.New(fleet.Config{N: 16, Seed: 3})
	pr := model.Fig3Prior()
	pr.LinkRate.N, pr.CrossFrac.N, pr.FullnessSteps = 4, 2, 2
	lossPrior, _ := pr.Enumerate()
	for _, c := range []struct {
		name      string
		states    []model.State
		cfg       belief.Config
		truth     *model.Truth
		single    bool
		maxTrades int
	}{
		{"fleet member", fl.PriorStates(), fl.MemberBeliefConfig(),
			model.NewTruth(fl.PriorStates()[len(fl.PriorStates())/2].P.Params, true, model.GateFixed, 0, rand.New(rand.NewSource(5))), true, 16},
		{"fig3 loss prior", lossPrior, belief.Config{Relax: true},
			model.NewTruth(model.Fig2Actual(), true, model.GateSquareWave, 20*time.Second, rand.New(rand.NewSource(6))), false, 10},
	} {
		cfg := c.cfg
		cfg.Pool = rollout.New()
		b := belief.NewExact(c.states, cfg)
		rng := rand.New(rand.NewSource(47))
		var now time.Duration
		var seq int64
		var shared, queued, grown int
		var tr trades
		check := func(k int) {
			pages, classes, single, held, used := belief.Storage(b)
			if single != c.single {
				shared++
			}
			if want := (classes + belief.HdrPageLen - 1) / belief.HdrPageLen; pages != want {
				t.Fatalf("%s, update %d: %d header pages for %d classes, want %d", c.name, k, pages, classes, want)
			}
			if held < used || held > 2*used+belief.PageLen {
				t.Fatalf("%s, update %d: the queue arrays hold %d entries for %d in use in %d classes", c.name, k, held, used, classes)
			}
			belief.CheckQueueArrays(t, b)
			belief.CheckPageOwners(t, []*belief.Exact{b})
			if used > 0 {
				queued++
			}
			if tr.reads > 0 && pages > len(tr.hdrs) {
				grown++
			}
			tr.read(t, b)
		}
		check(-1)
		for k := 0; k < 60; k++ {
			step := time.Duration(50+rng.Intn(1500)) * time.Millisecond
			var sends []model.Send
			for at := now + time.Duration(1+rng.Intn(200))*time.Millisecond; at <= now+step && len(sends) < 4; at += time.Duration(60+rng.Intn(300)) * time.Millisecond {
				sends = append(sends, model.Send{Seq: seq, At: at})
				b.RecordSend(sends[len(sends)-1])
				seq++
			}
			now += step
			var acks []packet.Ack
			for _, ev := range c.truth.AdvanceTo(now, sends) {
				if ev.Kind == model.OwnDelivered {
					acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
				}
			}
			b.Update(now, acks)
			check(k)
		}
		if shared > 60/2 {
			t.Fatalf("%s: %d of 61 reads had the other kind of support", c.name, shared)
		}
		if queued < 60/2 {
			t.Fatalf("%s: only %d of 61 reads had packets queued", c.name, queued)
		}
		if grown == 0 {
			t.Fatalf("%s: the classes never outgrew their header pages: the page check is vacuous", c.name)
		}
		if tr.n > c.maxTrades {
			t.Errorf("%s: storage churned %d times over 60 updates, want at most %d", c.name, tr.n, c.maxTrades)
		}
	}

	// One known link of one packet a second, sent 18 packets and then
	// four every fourth second: its queue swings between 14 and 17
	// entries, across 16, and takes one page, once.
	link := model.Params{LinkRate: 12000, BufferCapBits: 64 * 12000}
	b := belief.NewExact([]model.State{model.Initial(link, false)}, belief.Config{})
	truth := model.NewTruth(link, false, model.GateFixed, 0, rand.New(rand.NewSource(7)))
	var tr trades
	tr.read(t, b)
	var seq int64
	lo, hi := 1<<30, 0
	for k := 0; k < 40; k++ {
		now := time.Duration(k) * time.Second
		burst := 4
		if k == 0 {
			burst = 18
		} else if k%4 != 0 {
			burst = 0
		}
		var sends []model.Send
		for i := 0; i < burst; i++ {
			sends = append(sends, model.Send{Seq: seq, At: now + time.Duration(i+1)*time.Millisecond})
			b.RecordSend(sends[i])
			seq++
		}
		var acks []packet.Ack
		for _, ev := range truth.AdvanceTo(now+time.Second-time.Millisecond, sends) {
			if ev.Kind == model.OwnDelivered {
				acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
			}
		}
		b.Update(now+time.Second-time.Millisecond, acks)
		tr.read(t, b)
		if _, _, _, _, used := belief.Storage(b); k >= 4 {
			lo, hi = min(lo, used), max(hi, used)
		}
	}
	if lo >= 16 || hi <= 16 {
		t.Fatalf("the queue held %d to %d entries: it never crossed 16", lo, hi)
	}
	if tr.n > 1 {
		t.Errorf("a queue swinging across 16 entries churned storage %d times over 40 updates, want at most 1", tr.n)
	}
}

// TestSupportHeadersFollowTheSupport: on Figure 3's prior the support
// descends from the prior's 4,480 hypotheses to a few hundred, and the
// header pages follow its classes down: at every read the belief holds
// ⌈classes / HdrPageLen⌉ pages, every page it gave back lies in its
// pool's header store, and the store has made no more pages than the
// widest classes held at once. The support view holds one header per
// hypothesis.
func TestSupportHeadersFollowTheSupport(t *testing.T) {
	states, _ := model.Fig3Prior().Enumerate()
	b := belief.NewExact(states, belief.Config{})
	truth := model.NewTruth(model.Fig2Actual(), true, model.GateSquareWave, 100*time.Second, rand.New(rand.NewSource(6)))
	var now time.Duration
	var seq int64
	widest, least := len(belief.HeaderPages(b)), 1<<30
	for k := 0; k < 60; k++ {
		var sends []model.Send
		if k%2 == 0 {
			sends = append(sends, model.Send{Seq: seq, At: now + time.Millisecond})
			b.RecordSend(sends[0])
			seq++
		}
		now += 500 * time.Millisecond
		var acks []packet.Ack
		for _, ev := range truth.AdvanceTo(now, sends) {
			if ev.Kind == model.OwnDelivered {
				acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
			}
		}
		st := b.Update(now, acks)
		belief.CheckPageOwners(t, []*belief.Exact{b})
		pages := len(belief.HeaderPages(b))
		widest, least = max(widest, pages), min(least, pages)
		if held := pages + belief.HeaderStore(b); held != widest {
			t.Fatalf("update %d: %d header pages held and %d stored, after %d held at once", k, pages, belief.HeaderStore(b), widest)
		}
		if n := len(b.Support()); n != st.N {
			t.Fatalf("update %d: the support view holds %d headers for %d hypotheses", k, n, st.N)
		}
	}
	if widest < 4*least {
		t.Fatalf("the header pages went from %d to at least %d: the descent is too shallow to check", widest, least)
	}
}

// trades counts, between consecutive reads, the queue arrays a belief
// holds that it did not hold before: arrays taken from the pool's store
// or made. It fails t unless the belief kept, in their order, the header
// pages it held before and still needs.
type trades struct {
	n, reads int
	held     map[*model.QPkt]bool
	hdrs     [][]belief.Hypothesis
}

func (tr *trades) read(t *testing.T, b *belief.Exact) {
	t.Helper()
	held := make(map[*model.QPkt]bool)
	for _, a := range belief.QueueArrays(b) {
		p := unsafe.SliceData(a)
		held[p] = true
		if tr.reads > 0 && !tr.held[p] {
			tr.n++
		}
	}
	hdrs := belief.HeaderPages(b)
	for i := range min(len(hdrs), len(tr.hdrs)) {
		if &hdrs[i][0] != &tr.hdrs[i][0] {
			t.Fatalf("read %d: the belief traded header page %d, which it still needs", tr.reads, i)
		}
	}
	tr.held, tr.hdrs = held, slices.Clone(hdrs)
	tr.reads++
}

// TestPagesHaveOneOwner: eight fleet members' beliefs on one pool, driven
// by generated updates — one member sending in bursts, so its queue
// outgrows a page — hand queue arrays to each other through the pool's
// store without sharing one: after every update each array is held by
// exactly one belief or lies in the store, no two class windows overlap,
// and the store has made exactly the arrays held and stored. Some
// arrays pass from one belief to another, so the store is exercised.
func TestPagesHaveOneOwner(t *testing.T) {
	fl := fleet.New(fleet.Config{N: 64, Seed: 5})
	states := fl.PriorStates()
	cfg := fl.MemberBeliefConfig()
	cfg.Pool = rollout.New()
	const members = 8
	bs := make([]*belief.Exact, members)
	truths := make([]*model.Truth, members)
	for i := range bs {
		bs[i] = belief.NewExact(states, cfg)
		truths[i] = model.NewTruth(states[(i*len(states))/members].P.Params, true, model.GateFixed, 0, rand.New(rand.NewSource(int64(i))))
	}
	rng := rand.New(rand.NewSource(62))
	now := make([]time.Duration, members)
	seq := make([]int64, members)
	last := make(map[*model.QPkt]int) // the belief that last held each array
	longest, handed := 0, 0
	for k := 0; k < 400; k++ {
		i := rng.Intn(members)
		b, step := bs[i], time.Duration(50+rng.Intn(700))*time.Millisecond
		burst := rng.Intn(4)
		if i == 0 && k%40 < 4 {
			burst = 60
		}
		var sends []model.Send
		for j := 0; j < burst; j++ {
			sends = append(sends, model.Send{Seq: seq[i], At: now[i] + time.Duration(1+j)*time.Millisecond})
			b.RecordSend(sends[j])
			seq[i]++
		}
		now[i] += step
		var acks []packet.Ack
		for _, ev := range truths[i].AdvanceTo(now[i], sends) {
			if ev.Kind == model.OwnDelivered {
				acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
			}
		}
		b.Update(now[i], acks)
		for p, h := range belief.CheckPageOwners(t, bs) {
			if h < 0 {
				continue
			}
			if was, ok := last[p]; ok && was != h {
				handed++
			}
			last[p] = h
		}
		for _, h := range b.Support() {
			longest = max(longest, len(h.S.Queue))
		}
	}
	if longest <= belief.PageLen || handed == 0 {
		t.Fatalf("the longest class queue held %d entries and %d arrays passed between beliefs: the check is vacuous", longest, handed)
	}
}

// TestSupportIsOneViewPerPool: beliefs that share a pool share one
// support view. Two beliefs on a fleet member's prior (every class one
// hypothesis) and two on Figure 3's loss prior (classes of loss
// siblings) share one pool, each beside a twin alone on a pool of its
// own, and are driven through generated updates and reads in a
// generated order: every Support deep-equals its twin's, whichever
// belief's Support or Update came before; a view held across another
// belief's Update still does; and a Support repeated with no Update or
// other Support between allocates nothing.
func TestSupportIsOneViewPerPool(t *testing.T) {
	fl := fleet.New(fleet.Config{N: 16, Seed: 3})
	pr := model.Fig3Prior()
	pr.LinkRate.N, pr.CrossFrac.N, pr.FullnessSteps = 4, 2, 2
	lossPrior, _ := pr.Enumerate()
	member := fl.MemberBeliefConfig()
	priors := []struct {
		states []model.State
		cfg    belief.Config
	}{
		{fl.PriorStates(), member}, {fl.PriorStates(), member},
		{lossPrior, belief.Config{Relax: true}}, {lossPrior, belief.Config{Relax: true}},
	}
	pool := rollout.New()
	n := len(priors)
	bs, twins := make([]*belief.Exact, n), make([]*belief.Exact, n)
	truths := make([]*model.Truth, n)
	for i, p := range priors {
		cfg := p.cfg
		cfg.Pool = pool
		bs[i] = belief.NewExact(p.states, cfg)
		cfg.Pool = rollout.New()
		twins[i] = belief.NewExact(p.states, cfg)
		truths[i] = model.NewTruth(p.states[(i+1)*len(p.states)/(n+1)].P.Params, true, model.GateFixed, 0, rand.New(rand.NewSource(int64(i))))
	}
	rng := rand.New(rand.NewSource(65))
	now := make([]time.Duration, n)
	seq := make([]int64, n)
	var updates, shared, held int
	for k := 0; k < 300; k++ {
		i := rng.Intn(n)
		if rng.Intn(3) > 0 {
			step := time.Duration(50+rng.Intn(700)) * time.Millisecond
			var sends []model.Send
			for j := range rng.Intn(4) {
				sends = append(sends, model.Send{Seq: seq[i], At: now[i] + time.Duration(1+j)*time.Millisecond})
				bs[i].RecordSend(sends[j])
				twins[i].RecordSend(sends[j])
				seq[i]++
			}
			now[i] += step
			var acks []packet.Ack
			for _, ev := range truths[i].AdvanceTo(now[i], sends) {
				if ev.Kind == model.OwnDelivered {
					acks = append(acks, packet.Ack{Seq: ev.Seq, ReceivedAt: ev.At})
				}
			}
			bs[i].Update(now[i], slices.Clone(acks))
			twins[i].Update(now[i], acks)
			updates++
		}
		sup := bs[i].Support()
		if !reflect.DeepEqual(sup, twins[i].Support()) {
			t.Fatalf("step %d: belief %d's support differs from its twin's alone on a pool", k, i)
		}
		if _, classes, _, _, _ := belief.Storage(bs[i]); classes < len(sup) {
			shared++
		}
		if allocs := testing.AllocsPerRun(3, func() { bs[i].Support() }); allocs != 0 {
			t.Fatalf("step %d: a repeated Support allocates %v times", k, allocs)
		}
		// Another belief's Update leaves the view alone.
		if j := rng.Intn(n); j != i && rng.Intn(4) == 0 {
			now[j] += 100 * time.Millisecond
			bs[j].Update(now[j], nil)
			twins[j].Update(now[j], nil)
			if !reflect.DeepEqual(sup, twins[i].Support()) {
				t.Fatalf("step %d: belief %d's view changed under belief %d's Update", k, i, j)
			}
			held++
		}
	}
	if updates < 150 || shared < 50 || held < 10 {
		t.Fatalf("%d updates, %d reads of shared classes, %d views held across another Update: the check is vacuous", updates, shared, held)
	}
}
