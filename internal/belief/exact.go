package belief

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/rollout"
)

// Exact is the paper's rejection-sampling belief: it maintains "a list of
// all possible configurations of the network and their corresponding
// probability" (§3.2). Every Update advances each configuration,
// enumerating forks at nondeterministic elements, rejects configurations
// inconsistent with the observed acknowledgments, renormalizes, and
// compacts states that have become identical.
//
// It stores a configuration's dynamic state once per class
// (model.State.SameClass): hypotheses that differ only in their loss
// probability, their initial fullness and their grid point — loss
// siblings, and fullness siblings once their queues agree — advance
// alike, so each class is advanced, hashed and stored once and each
// hypothesis keeps only its grid point, weight and class.
type Exact struct {
	cfg     Config
	now     time.Duration
	pending []model.Send
	// recent retains acknowledgments for recentAckWindow so soft matching
	// can pair predictions with acks across update boundaries; unused in
	// hard mode.
	recent map[int64]time.Duration
	// prior keeps pristine copies of the initial states when
	// Config.Recover is set, so a likelihood collapse can re-seed the
	// belief deterministically.
	prior []model.State
	// pool carries the update arena every belief on it shares.
	pool *rollout.Pool
	// Cum accumulates stats over the belief's lifetime.
	Cum UpdateStats

	// points holds the grid point of each prior state: the parameter
	// record and ParamsID a support header carries. siblings reports
	// whether two grid points differ in ParamsID but not in their
	// dynamics (model.Params.Dynamics): only then can an update leave two
	// classes holding equal states, since compaction merges equal states
	// of one grid point, so only then does its classify look for them.
	points   []point
	siblings bool

	// hdrs holds one state per class on fixed header pages of hdrPageLen
	// entries each, class k at hdrs[k/hdrPageLen][k%hdrPageLen], nc
	// classes in the order of each class's first hypothesis, each under
	// that hypothesis's grid point; a class's W is unused unless the
	// classes are the support. Entries past the classes are cleared. This
	// is all the belief owns of its states between updates: the header
	// pages, ⌈nc/hdrPageLen⌉ of them, and the arrays the queues lie on:
	// pages, of pageLen entries each, and long, one power-of-two array per
	// queue longer than a page. Every class's queue is a window of its own
	// — page[o:o+n:o+n], QHead 0, in class order — so that no class can
	// append into another's entries. The belief holds no array it does not
	// use, so the queue arrays hold at most twice the entries in use plus
	// one page: see pack. A class state is advanced in the pool's arena,
	// never on a page: an update unpacks the classes there and packs them
	// back (pack). Support copies the headers into the pool's one view
	// (arena.view). mem holds the hypotheses in support order, each
	// naming its class.
	hdrs        [][]Hypothesis
	nc          int
	pages, long [][]model.QPkt
	mem         []member

	// gate is the toggle probability of the last (tick, mean switch time)
	// a count met: taken once for every class that shares them rather
	// than per class and segment. The zero value is ToggleProb(0, 0).
	gate struct {
		tick, mean time.Duration
		q          float64
	}
	// segAcks holds the running segment's acknowledgments by sequence
	// number, under hard matching only.
	segAcks map[int64]time.Duration
}

// arena is what an update needs only while it runs. It rides the pool
// (rollout.Pool.Belief), so every belief on one pool — a whole fleet —
// grows one set of these buffers, sized by the largest single update,
// rather than one each; the pool is used by one goroutine at a time.
//
// slots are the two halves of the branch double buffer: an update
// unpacks its classes into one (unpack), a segment in which a class
// forks builds its branches in the other, every other segment advances
// the classes where they are. Every slot up to capacity — live, or dead
// since no hypothesis was left on it or a class merged it — owns its
// queue buffer alone, so an advance writes only its own slots' queues;
// states change slots through move, so a twin forked into a dead slot
// recycles the buffer left there. A class branch's W holds its
// probability from the advance to the reduce, then its number in
// classify.
//
// segs[c] is where class c's branches start in the segment's output and
// the last of its hypotheses; at[m] is where hypothesis m's branches
// start among the segment's hypothesis branches (and in lws) and the one
// before it in its class — and, while classify numbers the classes,
// at[k].off is class k's branch. lws holds one likelihood per hypothesis
// branch, and branches the hypothesis branches of a segment in which a
// class forks. events is the buffer a class advance enumerates into.
//
// hdrStore and pages are the free stores, each handed to the next
// belief that needs storage and each keeping every array given back,
// since each is one a belief on the pool held: what a store holds is
// bounded by what the pool's beliefs held at once. hdrStore holds header
// pages of hdrPageLen entries, cleared. pages holds queue storage, by capacity:
// pages, and the power-of-two arrays of queues longer than a page. made
// counts the arrays both stores have made for them.
//
// view is what Support returns, for the belief viewOf: one copy of its
// headers per pool, written by the first Support after viewOf's last
// Update and kept until viewOf's next Update or another belief's
// Support.
type arena struct {
	slots    [2][]Hypothesis
	segs     []classSeg
	at       []memberSeg
	lws      []float64
	branches []member
	events   []model.Event
	byKey    keyIndex
	hdrStore [][]Hypothesis
	pages    map[int][][]model.QPkt
	made     int
	view     []Hypothesis
	viewOf   *Exact
}

// arena returns the pool's update arena.
func (b *Exact) arena() *arena {
	ar, _ := b.pool.Belief.(*arena)
	if ar == nil {
		ar = &arena{pages: make(map[int][][]model.QPkt)}
		b.pool.Belief = ar
	}
	return ar
}

// take returns an array of n queue entries from the page store, or a
// new one.
func (ar *arena) take(n int) []model.QPkt {
	if l := ar.pages[n]; len(l) > 0 {
		ar.pages[n] = l[:len(l)-1]
		return l[len(l)-1]
	}
	ar.made++
	return make([]model.QPkt, n)
}

// give returns the arrays in s to the page store.
func (ar *arena) give(s [][]model.QPkt) {
	for _, a := range s {
		ar.pages[len(a)] = append(ar.pages[len(a)], a)
	}
}

// takeHdrs returns a cleared header page from the header store, or a new
// one.
func (ar *arena) takeHdrs() []Hypothesis {
	if n := len(ar.hdrStore); n > 0 {
		p := ar.hdrStore[n-1]
		ar.hdrStore = ar.hdrStore[:n-1]
		return p
	}
	ar.made++
	return make([]Hypothesis, hdrPageLen)
}

// giveHdrs clears the header pages in s, whose headers point at records
// and queues, and returns them to the header store.
func (ar *arena) giveHdrs(s [][]Hypothesis) {
	for _, p := range s {
		clear(p)
		ar.hdrStore = append(ar.hdrStore, p)
	}
}

// point is a grid point: the parameter record and ParamsID of a prior
// state. Two points may be equal; their hypotheses still merge by
// ParamsID.
type point struct {
	p  *model.Record
	id int32
}

// member is one hypothesis: its weight, its class — or, inside a
// segment, the class branch it took — and its grid point.
type member struct {
	w       float64
	cls, pt int32
}

type classSeg struct{ off, head int32 }

type memberSeg struct{ off, next int32 }

// recentAckWindow bounds how long soft matching remembers
// acknowledgments.
const recentAckWindow = 5 * time.Second

// NewExact builds an exact belief over the given equally weighted initial
// states (typically from Prior.Enumerate).
func NewExact(states []model.State, cfg Config) *Exact {
	b := newExact(states, cfg)
	w := 1 / float64(len(states))
	hyps := make([]Hypothesis, len(states))
	for i, s := range states {
		hyps[i] = Hypothesis{S: s, W: w}
	}
	b.load(hyps, func(i int) int32 { return int32(i) })
	return b
}

// newExact builds an Exact with no hypotheses over the prior states,
// which it keeps only when cfg.Recover may re-seed from them, and with
// their grid points.
func newExact(states []model.State, cfg Config) *Exact {
	if len(states) == 0 {
		// Invariant, not a network condition: a caller constructed a
		// belief with nothing to believe. No input arriving later can
		// make this sane, so fail at the construction site.
		panic("belief: empty prior")
	}
	cfg = cfg.withDefaults()
	b := &Exact{
		cfg:     cfg,
		recent:  make(map[int64]time.Duration),
		pool:    cfg.Pool,
		segAcks: make(map[int64]time.Duration),
	}
	if b.pool == nil {
		b.pool = rollout.New()
	}
	b.points = make([]point, len(states))
	ids := make(map[model.Params]int32)
	for i := range states {
		s := &states[i]
		b.points[i] = point{s.P, s.ParamsID}
		d := s.P.Params.Dynamics()
		if id, ok := ids[d]; !ok {
			ids[d] = s.ParamsID
		} else if id != s.ParamsID {
			b.siblings = true
		}
	}
	if cfg.Recover {
		b.prior = make([]model.State, len(states))
		for i, s := range states {
			b.prior[i] = s.Clone()
		}
	}
	return b
}

// load makes hyps the belief's support, the grid point of hyps[i] being
// pt(i): equal states become one class. It copies the queues onto the
// belief's pages, so hyps may share them with the caller; the headers,
// their queues dropped, become the arena's first slot buffer when it has
// fewer slots.
func (b *Exact) load(hyps []Hypothesis, pt func(i int) int32) {
	b.mem = resize(b.mem, len(hyps))
	for i := range hyps {
		b.mem[i] = member{w: hyps[i].W, cls: int32(i), pt: pt(i)}
	}
	cls, _ := b.classify(hyps, nil, true)
	ar := b.arena()
	b.pack(ar, cls)
	if cls = cls[:cap(cls)]; len(cls) > cap(ar.slots[0]) {
		for i := range cls {
			cls[i].S.Queue = nil
		}
		ar.slots[0] = cls
	}
}

// Now implements Belief.
func (b *Exact) Now() time.Duration { return b.now }

// PendingSends implements Belief.
func (b *Exact) PendingSends() []model.Send { return b.pending }

// Lifetime implements Belief.
func (b *Exact) Lifetime() UpdateStats { return b.Cum }

// RecordSend implements Belief. Sends must be recorded in time order.
func (b *Exact) RecordSend(s model.Send) {
	if n := len(b.pending); n > 0 && b.pending[n-1].At > s.At {
		// Invariant: the sender records its own sends, under its own
		// (monotone) clock — network input cannot reach this path.
		panic("belief: sends recorded out of order")
	}
	b.pending = append(b.pending, s)
}

// move transfers *src to *dst (a no-op when they are one slot) and
// leaves dst's queue buffer behind in src, now a dead slot: both buffers
// keep exactly one owner.
func move(dst, src *Hypothesis) {
	if dst == src {
		return
	}
	q := dst.S.Queue
	*dst = *src
	src.S.Queue = q
}

// resize returns s with length n, keeping every slot up to capacity (and
// any queue buffer it owns) when it has to grow.
func resize[T any](s []T, n int) []T {
	if c := cap(s); n > c {
		s = append(s[:c], make([]T, n-c)...)
	}
	return s[:n]
}

// Support implements Belief. It returns the pool's one support view
// (arena.view), written from the header pages: the classes in class
// order when each class has one member (each under its member's grid
// point and weight), else one header per hypothesis, its class's state —
// queue window included — under its grid point and weight. The view is
// written once per Update and kept until this belief's next Update or
// the next Support of any belief on the same pool, which rewrites it;
// a belief alone on its pool is the only one to rewrite it. Every
// hypothesis of a class aliases its class's queue, a window onto one of
// the belief's queue pages that the next Update rewrites, so the states
// must not be written — a write to one hypothesis's queue is a write to
// its siblings'. Clone a state to keep it longer or to change it.
func (b *Exact) Support() []Hypothesis {
	ar := b.arena()
	if ar.viewOf == b {
		return ar.view
	}
	mem := b.mem
	ar.view = resize(ar.view, len(mem))
	view := ar.view
	if b.nc == len(mem) {
		for p, pg := range b.hdrs {
			copy(view[p*hdrPageLen:], pg)
		}
	} else {
		for i, e := range mem {
			h, pt := &view[i], b.points[e.pt]
			h.S = b.class(int(e.cls)).S
			h.S.P, h.S.ParamsID, h.W = pt.p, pt.id, e.w
		}
	}
	ar.viewOf = b
	return view
}

// class returns class k's header.
func (b *Exact) class(k int) *Hypothesis { return &b.hdrs[k/hdrPageLen][k%hdrPageLen] }

// begin opens an update to now: it checks the clock, refreshes the soft
// ack memory with acks and returns the pending sends due by now.
func (b *Exact) begin(now time.Duration, acks []packet.Ack) []model.Send {
	if now < b.now {
		// Invariant: callers drive the belief with a monotone clock
		// (the DES loop by construction). Time running backwards here
		// is a driver bug, not a network fault.
		panic(fmt.Sprintf("belief: update time %v precedes previous update %v", now, b.now))
	}
	n := 0
	for n < len(b.pending) && b.pending[n].At <= now {
		n++
	}
	if b.cfg.SoftSigma > 0 {
		for _, a := range acks {
			b.recent[a.Seq] = a.ReceivedAt
		}
		for seq, at := range b.recent {
			if at < now-recentAckWindow {
				delete(b.recent, seq)
			}
		}
	}
	return b.pending[:n]
}

// collapse applies the configured policy when an observation is
// impossible under every hypothesis, counting it in st: true means
// re-seed from the prior (Recover), false keep the unconditioned
// posterior (Relax). Without either it panics: the prior did not contain
// the truth (or tolerances are too tight), and silently resetting would
// mask a broken model, the exact failure this architecture is meant to
// surface. Callers facing faults or a competing sender (RunChaos, the
// fleet, coexistence) opt into Recover or Relax; the default stays
// loud.
func (b *Exact) collapse(st *UpdateStats) (reseed bool) {
	switch {
	case b.cfg.Recover:
		st.Reseeded++
		return true
	case b.cfg.Relax:
		st.Relaxed++
		return false
	}
	panic("belief: all hypotheses rejected; the prior cannot explain the observations")
}

// end closes an update at now: the consumed sends leave the queue, the
// clock moves and st joins the lifetime counters.
func (b *Exact) end(now time.Duration, consumed int, st UpdateStats) UpdateStats {
	b.now = now
	b.pending = append(b.pending[:0], b.pending[consumed:]...)
	b.Cum.Branches += st.Branches
	b.Cum.Rejected += st.Rejected
	b.Cum.Merged += st.Merged
	b.Cum.Floored += st.Floored
	b.Cum.Relaxed += st.Relaxed
	b.Cum.Reseeded += st.Reseeded
	b.Cum.N, b.Cum.Classes = st.N, st.Classes
	return st
}

// Update implements Belief.
//
// The window [previous update, now] is processed in segments bounded by
// toggle opportunities: forking doubles the population at most once per
// segment, and compaction + flooring run after every segment. Without
// this interleaving a long quiet window would enumerate 2^opportunities
// branches before any chance to merge them — compaction must race the
// forks, exactly as the paper describes states being "compacted back
// into one" as soon as they coincide (§3.2).
//
// A segment advances each class once and weighs every hypothesis's
// branches from its class's events with the hypothesis's own loss
// probability; the reduce, compaction and floor then run per hypothesis,
// in hypothesis order with the float operations of a per-hypothesis
// advance, so classes change the cost and nothing else. The class
// headers are written once, at the end, and the support view at the
// next Support.
//
// Acknowledgment matching is segment-local: an ack can only match a
// delivery event in the segment containing its receive time, because
// predicted and observed times agree to within timeTol, which is far
// smaller than a segment.
func (b *Exact) Update(now time.Duration, acks []packet.Ack) UpdateStats {
	slices.SortFunc(acks, func(a, b packet.Ack) int { return cmp.Compare(a.ReceivedAt, b.ReceivedAt) })
	sends := b.begin(now, acks)

	tick := model.DefaultSwitchTick
	if b.nc > 0 && b.hdrs[0][0].S.SwitchTick > 0 {
		tick = b.hdrs[0][0].S.SwitchTick
	}

	var stats UpdateStats
	ar := b.arena()
	cls, spare := b.unpack(ar)
	si, ai := 0, 0
	for segStart := b.now; segStart < now || segStart == b.now; {
		segEnd := now
		if boundary := segStart - segStart%tick + tick; boundary < segEnd {
			segEnd = boundary
		}
		// Sends and acks belonging to this segment.
		sHi := si
		for sHi < len(sends) && sends[sHi].At <= segEnd {
			sHi++
		}
		aHi := ai
		for aHi < len(acks) && acks[aHi].ReceivedAt <= segEnd {
			aHi++
		}
		if b.cfg.SoftSigma <= 0 {
			// Hard matching looks this segment's acks up by sequence number;
			// soft matching reads recent instead.
			clear(b.segAcks)
			for _, a := range acks[ai:aHi] {
				b.segAcks[a.Seq] = a.ReceivedAt
			}
		}

		// Count each class's branches, chain each class's hypotheses and
		// lay out their likelihoods, in one walk of the hypotheses: a class
		// is counted at its first hypothesis, and classes are numbered in
		// that order. Only a segment with a fork needs the spare slots.
		mem := b.mem
		nc, nm := len(cls), len(mem)
		ar.segs, ar.at = resize(ar.segs, nc+1), resize(ar.at, nm)
		segs, at, gate := ar.segs, ar.at, &b.gate
		total, mtotal, counted := 0, 0, int32(0)
		for m := range mem {
			c := mem[m].cls
			if c == counted {
				s := &cls[c].S
				if s.SwitchTick != gate.tick || s.P.MeanSwitch != gate.mean {
					gate.tick, gate.mean, gate.q = s.SwitchTick, s.P.MeanSwitch, model.ToggleProb(s.SwitchTick, s.P.MeanSwitch)
				}
				segs[c] = classSeg{off: int32(total), head: -1}
				total += s.Leaves(segEnd, gate.q)
				segs[c+1].off = int32(total)
				counted++
			}
			at[m] = memberSeg{off: int32(mtotal), next: segs[c].head}
			segs[c].head = int32(m)
			mtotal += int(segs[c+1].off - segs[c].off)
		}
		out, other := cls, spare
		if total > nc {
			spare = resize(spare, total)
			out, other = spare, cls
		}
		ar.lws = resize(ar.lws, mtotal)
		lws := ar.lws

		// Advance every class where it lives, weighing each of its
		// hypotheses' branches. An advance writes only its own class's
		// slots and its hypotheses' likelihoods.
		for c := range nc {
			b.advanceClass(ar, c, segEnd, now, sends[si:sHi], cls, out)
		}

		// Lay out the hypothesis branches, each with its unconditioned
		// weight, where the likelihoods lie. Without a fork they lie in
		// place already: class c is branch c, of probability 1.
		if mtotal > nm {
			ar.branches = resize(ar.branches, mtotal)
			mem = ar.branches
			for m, e := range b.mem {
				lo, hi := segs[e.cls].off, segs[e.cls+1].off
				to := at[m].off - lo
				for j := lo; j < hi; j++ {
					mem[to+j] = member{w: e.w * out[j].W, cls: j, pt: e.pt}
				}
			}
		}

		// Sequential Bayesian reduce, in branch order — identical float
		// operations whatever the classes. Survivors close ranks in place.
		stats.Branches += mtotal
		kept := 0
		var sum float64
		for j := range mem {
			w := mem[j].w * lws[j]
			// !(w > 0) also rejects NaN (a poisoned likelihood must
			// never propagate into the posterior).
			if !(w > 0) {
				stats.Rejected++
				continue
			}
			mem[kept] = mem[j]
			mem[kept].w = w
			sum += w
			kept++
		}
		if kept == 0 {
			// Nothing survived, so nothing has moved: mem still holds
			// every branch with its unconditioned weight.
			if b.collapse(&stats) {
				// Re-seed from the prior at the collapse instant; the
				// segment's observations are abandoned (they condition
				// nothing a fresh prior could know about) and inference
				// restarts.
				out = resize(out, len(b.prior))
				mem = resize(mem, len(b.prior))
				w := 1 / float64(len(b.prior))
				for i := range b.prior {
					b.prior[i].CloneInto(&out[i].S)
					out[i].S.Rebase(segEnd)
					mem[i] = member{w: w, cls: int32(i), pt: int32(i)}
				}
				kept, sum = len(b.prior), 1 // reseeded weights are already normalized
			} else {
				// Relax: keep the pre-segment posterior, advanced without
				// conditioning — every branch of the advance already run.
				for j := range mem {
					w := mem[j].w
					if w <= 0 {
						continue
					}
					mem[kept] = mem[j]
					sum += w
					kept++
				}
			}
		}
		next := mem[:kept]
		for j := range next {
			next[j].w /= sum
		}
		next, merged := compact(next, out, b.points, &ar.byKey)
		stats.Merged += merged
		next, floored := floorAndCap(next, b.cfg.MinWeight, b.cfg.MaxHyps)
		stats.Floored += floored
		b.mem = append(b.mem[:0], next...)
		cls, spare = b.classify(out, other, b.siblings)

		si, ai = sHi, aHi
		if segEnd == now {
			break
		}
		segStart = segEnd
	}

	ar.slots = [2][]Hypothesis{cls, spare} // for the next update of any belief on the pool
	b.pack(ar, cls)
	stats.N, stats.Classes = len(b.mem), b.nc
	return b.end(now, len(sends), stats)
}

// compact merges hypotheses with identical canonical state keys, summing
// their weights — the paper's "compacted back into one state" (§3.2). It
// reports how many hypotheses were absorbed. A hypothesis's state is its
// class branch's in out under its own grid point (in points), and two
// hypotheses merge exactly when those Keys are equal
// (model.State.SameKeyAs): a hypothesis joins the first survivor of its
// KeyHead bucket it equals, its weight added in hypothesis order, else it
// survives itself. ix is the caller's reused index.
func compact(mem []member, out []Hypothesis, points []point, ix *keyIndex) ([]member, int) {
	mask := ix.reset(len(mem))
	kept := mem[:0]
outer:
	for j := range mem {
		e := mem[j]
		s, id := &out[e.cls].S, points[e.pt].id
		b := s.KeyHeadAs(id) & mask
		for i := ix.head[b]; i != 0; i = ix.next[i-1] {
			o := &kept[i-1]
			if oid := points[o.pt].id; o.cls == e.cls && oid == id || out[o.cls].S.SameKeyAs(oid, s, id) {
				o.w += e.w
				continue outer
			}
		}
		k := len(kept)
		ix.next[k], ix.head[b] = ix.head[b], int32(k+1)
		kept = append(kept, e)
	}
	return kept, len(mem) - len(kept)
}

// keyIndex is the reused chained index of compact and classify: head
// holds, per bucket, one plus the index of the bucket's latest entry (0:
// empty), and next, parallel to the entries, the one before it in the
// same bucket. Both only grow; a call clears only the buckets it uses.
type keyIndex struct {
	head, next []int32
}

// reset sizes the index for n entries — a power-of-two bucket count at
// or above n — and returns the bucket mask.
func (ix *keyIndex) reset(n int) uint64 {
	nb := 1
	for nb < n {
		nb <<= 1
	}
	if len(ix.head) < nb {
		ix.head = make([]int32, nb)
	}
	if len(ix.next) < n {
		ix.next = make([]int32, n)
	}
	clear(ix.head[:nb])
	return uint64(nb - 1)
}

// floorAndCap drops hypotheses below minW, keeps at most maxN of the
// heaviest, and renormalizes. It reports how many were dropped.
func floorAndCap(mem []member, minW float64, maxN int) ([]member, int) {
	out := mem[:0]
	for _, e := range mem {
		if e.w >= minW {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		// The floor annihilated everything (pathological minW), so
		// nothing has moved; keep the original set rather than dying.
		out = mem
	}
	dropped := len(mem) - len(out)
	if len(out) > maxN {
		sort.Slice(out, func(i, j int) bool { return out[i].w > out[j].w })
		dropped += len(out) - maxN
		out = out[:maxN]
	}
	var total float64
	for i := range out {
		total += out[i].w
	}
	for i := range out {
		out[i].w /= total
	}
	return out, dropped
}

// classify turns the class branches in out that hypotheses still name
// into the next classes: one per distinct state (model.State.SameClass),
// numbered in the order of their first hypotheses, each under that
// hypothesis's grid point. Branches no hypothesis names, and those equal
// to an earlier class, are left dead in their slots. The classes stay in
// out when their first hypotheses meet them in slot order, else they move
// to other; classify returns them and whichever buffer is left over, the
// next spare. Without probe no two branches are compared: the caller
// knows none are equal.
func (b *Exact) classify(out, other []Hypothesis, probe bool) (cls, spare []Hypothesis) {
	if !probe && len(b.mem) == len(out) && b.numbered() {
		// Every branch is its own hypothesis's, in order: the branches
		// are the classes, already under their hypotheses' grid points.
		return out, other
	}
	for j := range out {
		out[j].W = -1
	}
	ar := b.arena()
	ar.at = resize(ar.at, len(b.mem))
	src := ar.at
	var mask, h uint64
	ix := &ar.byKey
	if probe {
		mask = ix.reset(len(b.mem))
	}
	nc := 0
	inPlace := true
	for m := range b.mem {
		e := &b.mem[m]
		j := e.cls
		if k := out[j].W; k >= 0 {
			e.cls = int32(k)
			continue
		}
		s := &out[j].S
		k := int32(-1)
		if probe {
			h = s.ClassHead() & mask
			for i := ix.head[h]; i != 0; i = ix.next[i-1] {
				if out[src[i-1].off].S.SameClass(s) {
					k = i - 1
					break
				}
			}
		}
		if k < 0 {
			k = int32(nc)
			if nc > 0 && j < src[nc-1].off {
				inPlace = false
			}
			src[nc].off = j
			if probe {
				ix.next[nc], ix.head[h] = ix.head[h], int32(nc+1)
			}
			pt := b.points[e.pt]
			s.P, s.ParamsID = pt.p, pt.id
			nc++
		}
		out[j].W, e.cls = float64(k), k
	}
	dst, rest := out, other
	if !inPlace {
		dst, rest = resize(other, nc), out
	}
	for k := 0; k < nc; k++ {
		move(&dst[k], &out[src[k].off])
	}
	return dst[:nc], rest
}

// numbered reports whether hypothesis m names branch m, for every m.
func (b *Exact) numbered() bool {
	for m, e := range b.mem {
		if e.cls != int32(m) {
			return false
		}
	}
	return true
}

// unpack copies the classes into the first of the arena's slot buffers,
// each onto the queue buffer its slot owns, and returns them and the
// other buffer, the spare: the classes advance there, where a queue may
// grow, and the windows onto the pages are only read.
func (b *Exact) unpack(ar *arena) (cls, spare []Hypothesis) {
	cls = resize(ar.slots[0], b.nc)
	for k := range cls {
		b.class(k).S.CloneInto(&cls[k].S)
	}
	return cls, ar.slots[1]
}

// pack makes the classes in the arena's slots the belief's own: their
// headers go to the header pages, class k at entry k%hdrPageLen of page
// k/hdrPageLen, and their queues to the belief's queue pages, each
// class's a window of its own, in class order, on the current page while
// it fits and else on the next. A queue longer than a page gets an array
// of its own, ceilPow2 of its length, in long. Header pages, queue pages
// and long arrays come from the arena's stores only when the belief's
// own run out, and what the belief no longer uses goes back at the end:
// long arrays first, so a long queue that keeps its size takes its own
// array back. Each queue page but the last holds, with the next, more
// than a page of entries, and a long array less than twice its queue, so
// the belief holds at most twice the entries in use plus one page; a
// growing support costs a page at a time, not a larger array at every
// power of two. The belief keeps the header pages it still needs, in
// their order, and clears the entries past its classes; when each class
// has one member it writes the member's weight into its class's header,
// which Support then copies as it stands. The slots keep their buffers.
func (b *Exact) pack(ar *arena, classes []Hypothesis) {
	nc, mem := len(classes), b.mem
	if ar.viewOf == b {
		ar.viewOf = nil
	}
	np := (nc + hdrPageLen - 1) / hdrPageLen
	for len(b.hdrs) < np {
		b.hdrs = append(b.hdrs, ar.takeHdrs())
	}
	ar.giveHdrs(b.hdrs[np:])
	clear(b.hdrs[np:])
	b.hdrs, b.nc = b.hdrs[:np], nc
	if r := nc % hdrPageLen; r > 0 {
		clear(b.hdrs[np-1][r:])
	}
	ar.give(b.long)
	clear(b.long)
	b.long = b.long[:0]
	p, o := -1, pageLen
	for k := range classes {
		q := classes[k].S.Queued()
		n := len(q)
		var w []model.QPkt
		switch {
		case n == 0:
		case n > pageLen:
			a := ar.take(ceilPow2(n))
			b.long = append(b.long, a)
			w = a[:n:n]
		default:
			if o+n > pageLen {
				if p++; p == len(b.pages) {
					b.pages = append(b.pages, ar.take(pageLen))
				}
				o = 0
			}
			w = b.pages[p][o : o+n : o+n]
			o += n
		}
		copy(w, q)
		c := b.class(k)
		*c = classes[k]
		c.S.Queue, c.S.QHead = w, 0
	}
	ar.give(b.pages[p+1:])
	clear(b.pages[p+1:])
	b.pages = b.pages[:p+1]

	if nc == len(mem) {
		for k, e := range mem {
			b.class(k).W = e.w
		}
	}
}

// pageLen is the length of a queue page: 3 KiB of entries. Every belief
// with a packet queued holds at least one page, so a longer page costs
// a large fleet memory; a shorter one gives more queues an array of
// their own.
const pageLen = 128

// hdrPageLen is the length of a header page: 1 KiB of headers. A fleet's
// supports grow in lockstep, a page at a time, each from the store that
// the others' falls refill, and each belief leaves part of its last page
// unused, so a shorter page wastes less. On a 2-core host (cmd/bench,
// seed 42, 20 s) 8 allocated 0.489 MiB per virtual second on fleet-256
// and 0.461 on shard-1024, against 0.506 and 0.521 at 16, which was
// within 0.3 % of 8 on serve-256 and fig3-solo.
const hdrPageLen = 8

// ceilPow2 is the least power of two at or above n, and 0 for 0.
func ceilPow2(n int) int {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}

// toggleProb is the probability s's gate toggles at a switch opportunity,
// from gate when s shares its tick and mean switch time. Only Update's
// count refreshes gate; the class advances read it.
func (b *Exact) toggleProb(s *model.State) float64 {
	if s.SwitchTick == b.gate.tick && s.P.MeanSwitch == b.gate.mean {
		return b.gate.q
	}
	return model.ToggleProb(s.SwitchTick, s.P.MeanSwitch)
}

// likelihood weighs one branch's events under loss probability p, by
// soft or hard matching as configured, in an update to now.
func (b *Exact) likelihood(events []model.Event, now time.Duration, p float64) float64 {
	if b.cfg.SoftSigma > 0 {
		return softLikelihood(events, b.recent, now, p, b.cfg)
	}
	lw, matched := likelihood(events, b.segAcks, p)
	if matched < len(b.segAcks) {
		return 0 // an acknowledgment the branch cannot explain
	}
	return lw
}

// advanceClass advances class c of cls through the segment ending at
// end, in an update to now, with the segment's sends: it moves the class
// to the last of its slots in out, enumerates its branches from there,
// and leaves each branch's probability in its slot's W and, for each
// hypothesis of the class, the branch's likelihood under that
// hypothesis's loss probability in lws.
func (b *Exact) advanceClass(ar *arena, c int, end, now time.Duration, sends []model.Send, cls, out []Hypothesis) {
	seg := ar.segs[c]
	lo, last := int(seg.off), int(ar.segs[c+1].off)-1
	root := &out[last]
	move(root, &cls[c])
	ar.events = ar.events[:0]
	root.S.Enumerate(end, sends, &ar.events, last, 1, b.toggleProb(&root.S),
		func(j int) *model.State { return &out[j].S },
		func(j int, w float64) {
			out[j].W = w
			for m := seg.head; m >= 0; {
				at := &ar.at[m]
				ar.lws[int(at.off)+j-lo] = b.likelihood(ar.events, now, b.points[b.mem[m].pt].p.LossProb)
				m = at.next
			}
		})
}
