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
	"modelcc/internal/rollout"
)

// TestStorageFollowsTheClasses: between updates a belief holds what its
// classes need, over generated updates on a fleet member's prior and on
// Figure 3's loss prior: one to four header slots per class, whether the
// classes are the support (every class one hypothesis, as on a fleet
// member) or share loss siblings beside a header per hypothesis, and
// queue arrays of at least the entries in use and at most twice them
// plus one page, each a page or a power-of-two array holding one queue
// longer than a page. Most reads find the kind of support the prior is
// for and packets queued, so neither bound is vacuous.
//
// Storage churns little: over the generated updates, and on a known
// link whose queue swings across 16 entries, the queue arrays taken (an
// array held at one read and not at the one before, from the pool's
// store or made) and the header slots traded (a capacity changed between
// two reads) are at most the stated number in all.
func TestStorageFollowsTheClasses(t *testing.T) {
	fl := fleet.New(fleet.Config{N: 16, Seed: 3, Workers: 1})
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
		{"fig3 loss prior", lossPrior, belief.Config{Relax: true, Workers: 1},
			model.NewTruth(model.Fig2Actual(), true, model.GateSquareWave, 20*time.Second, rand.New(rand.NewSource(6))), false, 10},
	} {
		b := belief.NewExact(c.states, c.cfg)
		rng := rand.New(rand.NewSource(47))
		var now time.Duration
		var seq int64
		var shared, queued int
		var tr trades
		check := func(k int) {
			slots, classes, single, held, used := belief.Storage(b)
			if single != c.single {
				shared++
			}
			if slots < classes || slots > 4*classes {
				t.Fatalf("%s, update %d: %d header slots for %d classes (the support: %v)", c.name, k, slots, classes, single)
			}
			if held < used || held > 2*used+belief.PageLen {
				t.Fatalf("%s, update %d: the queue arrays hold %d entries for %d in use in %d classes", c.name, k, held, used, classes)
			}
			belief.CheckQueueArrays(t, b)
			if used > 0 {
				queued++
			}
			tr.read(b)
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
		if tr.n > c.maxTrades {
			t.Errorf("%s: storage churned %d times over 60 updates, want at most %d", c.name, tr.n, c.maxTrades)
		}
	}

	// One known link of one packet a second, sent 18 packets and then
	// four every fourth second: its queue swings between 14 and 17
	// entries, across 16, and takes one page, once.
	link := model.Params{LinkRate: 12000, BufferCapBits: 64 * 12000}
	b := belief.NewExact([]model.State{model.Initial(link, false)}, belief.Config{Workers: 1})
	truth := model.NewTruth(link, false, model.GateFixed, 0, rand.New(rand.NewSource(7)))
	var tr trades
	tr.read(b)
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
		tr.read(b)
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
// per-hypothesis headers beside shared classes follow it down under the
// classes' rule: once the support settles (from the fifth second) every
// update that writes them holds one per hypothesis and at most four
// times that, not the widest support they ever published.
func TestSupportHeadersFollowTheSupport(t *testing.T) {
	states, _ := model.Fig3Prior().Enumerate()
	b := belief.NewExact(states, belief.Config{Workers: 1})
	truth := model.NewTruth(model.Fig2Actual(), true, model.GateSquareWave, 100*time.Second, rand.New(rand.NewSource(6)))
	var now time.Duration
	var seq int64
	widest, checked := 0, 0
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
		b.Update(now, acks)
		slots, used := belief.SupportHeaders(b)
		widest = max(widest, used)
		if _, _, single, _, _ := belief.Storage(b); single || k < 10 {
			continue
		}
		checked++
		if n := len(b.Support()); used != n || slots > 4*used {
			t.Fatalf("update %d: %d support header slots, %d written, for a support of %d", k, slots, used, n)
		}
	}
	if widest < 4096 || checked < 25 {
		t.Fatalf("the support peaked at %d and %d of 50 settled reads wrote headers: the bound is vacuous", widest, checked)
	}
}

// trades counts, between consecutive reads, the capacity changes of a
// belief's header slots and the queue arrays it holds that it did not
// hold before: arrays taken from the pool's store or made.
type trades struct {
	slots, n, reads int
	held            map[*model.QPkt]bool
}

func (tr *trades) read(b *belief.Exact) {
	slots, _, _, _, _ := belief.Storage(b)
	held := make(map[*model.QPkt]bool)
	for _, a := range belief.QueueArrays(b) {
		p := unsafe.SliceData(a)
		held[p] = true
		if tr.reads > 0 && !tr.held[p] {
			tr.n++
		}
	}
	if tr.reads > 0 && slots != tr.slots {
		tr.n++
	}
	tr.slots, tr.held = slots, held
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
	fl := fleet.New(fleet.Config{N: 64, Seed: 5, Workers: 1})
	states := fl.PriorStates()
	cfg := fl.MemberBeliefConfig()
	cfg.Pool = rollout.New(1)
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
