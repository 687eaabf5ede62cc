package belief

import (
	"cmp"
	"fmt"
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
	// pool shards the per-hypothesis advances of an update.
	pool *rollout.Pool
	// Cum accumulates stats over the belief's lifetime.
	Cum UpdateStats

	hyps []Hypothesis

	// The buffers below make the steady-state update allocation-free.
	// next is the other half of the double buffer: a segment in which a
	// hypothesis forks builds its posterior there, every other segment
	// stays in hyps. Every slot of hyps and next up to capacity — live,
	// or dead since a reduce rejected, merged or floored it — owns its
	// queue buffer alone; hypotheses change slots through move, so a
	// twin forked into a dead slot recycles the buffer left there.
	next []Hypothesis
	// offs[i] is where hypothesis i's branches start in the segment's
	// output and qs[i] the toggle probability its gate forks with; lws
	// holds one likelihood per branch.
	offs    []int32
	qs      []float64
	lws     []float64
	byKey   keyIndex
	segAcks map[int64]time.Duration
	// seg is what advance reads of the running segment; advance is the
	// method value handed to the pool, bound once.
	seg struct {
		end, now time.Duration
		sends    []model.Send
		out      []Hypothesis
	}
	advance func(*rollout.Scratch, int)
}

// recentAckWindow bounds how long soft matching remembers
// acknowledgments.
const recentAckWindow = 5 * time.Second

// NewExact builds an exact belief over the given equally weighted initial
// states (typically from Prior.Enumerate).
func NewExact(states []model.State, cfg Config) *Exact {
	b := newExact(states, cfg)
	w := 1 / float64(len(states))
	b.hyps = make([]Hypothesis, len(states))
	for i, s := range states {
		b.hyps[i] = Hypothesis{S: s.Clone(), W: w}
	}
	return b
}

// newExact builds an Exact with no hypotheses over the prior states,
// which it keeps only when cfg.Recover may re-seed from them.
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
		b.pool = rollout.New(cfg.Workers)
	}
	if cfg.Recover {
		b.prior = make([]model.State, len(states))
		for i, s := range states {
			b.prior[i] = s.Clone()
		}
	}
	b.advance = b.advanceOne
	return b
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
		// transport.Sender clamps chaotic clocks monotone before
		// calling in.
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

// resize returns hyps with length n, keeping every slot up to capacity
// (and the queue buffer it owns) when it has to grow.
func resize(hyps []Hypothesis, n int) []Hypothesis {
	if c := cap(hyps); n > c {
		hyps = append(hyps[:c], make([]Hypothesis, n-c)...)
	}
	return hyps[:n]
}

// reseedFromPrior fills dst with the pristine prior rebased to at,
// uniformly weighted — the deterministic likelihood-collapse recovery.
func reseedFromPrior(prior []model.State, at time.Duration, dst []Hypothesis) []Hypothesis {
	dst = resize(dst, len(prior))
	w := 1 / float64(len(prior))
	for i := range prior {
		prior[i].CloneInto(&dst[i].S)
		dst[i].S.Rebase(at)
		dst[i].W = w
	}
	return dst
}

// Support implements Belief. The hypotheses are advanced where they
// live: the slice and the states in it are valid until the next Update;
// Clone a state to keep it longer.
func (b *Exact) Support() []Hypothesis { return b.hyps }

// begin opens an update to now: it checks the clock, refreshes the soft
// ack memory with acks and returns the pending sends due by now.
func (b *Exact) begin(now time.Duration, acks []packet.Ack) []model.Send {
	if now < b.now {
		// Invariant: callers drive the belief with a monotone clock
		// (the DES loop by construction, transport.Sender by clamping
		// chaotic wall clocks). Time running backwards here is a
		// driver bug, not a network fault.
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
// surface. Callers facing real networks (transport, soak) opt into
// Recover or Relax; the simulator-facing default stays loud.
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
	b.Cum.N = st.N
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
// Acknowledgment matching is segment-local: an ack can only match a
// delivery event in the segment containing its receive time, because
// predicted and observed times agree to within TimeTol, which is far
// smaller than a segment.
func (b *Exact) Update(now time.Duration, acks []packet.Ack) UpdateStats {
	slices.SortFunc(acks, func(a, b packet.Ack) int { return cmp.Compare(a.ReceivedAt, b.ReceivedAt) })
	sends := b.begin(now, acks)

	tick := model.DefaultSwitchTick
	if len(b.hyps) > 0 && b.hyps[0].S.SwitchTick > 0 {
		tick = b.hyps[0].S.SwitchTick
	}

	// The gate's toggle probability, taken once per (tick, mean switch
	// time) the update meets rather than per hypothesis and segment. The
	// zero value is ToggleProb(0, 0).
	var gate struct {
		tick, mean time.Duration
		q          float64
	}

	var stats UpdateStats
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
		segAcks := b.segAcks
		clear(segAcks)
		for _, a := range acks[ai:aHi] {
			segAcks[a.Seq] = a.ReceivedAt
		}

		// Count each hypothesis's branches; only a segment with a fork
		// needs the second buffer.
		n := len(b.hyps)
		if cap(b.offs) <= n {
			b.offs, b.qs = make([]int32, n+1), make([]float64, n+1)
		}
		total := 0
		for i := range b.hyps {
			s := &b.hyps[i].S
			if s.SwitchTick != gate.tick || s.P.MeanSwitch != gate.mean {
				gate.tick, gate.mean = s.SwitchTick, s.P.MeanSwitch
				gate.q = model.ToggleProb(gate.tick, gate.mean)
			}
			b.offs[i], b.qs[i] = int32(total), gate.q
			total += s.Leaves(segEnd, gate.q)
		}
		b.offs[n] = int32(total)
		out := b.hyps
		if total > n {
			b.next = resize(b.next, total)
			out = b.next
		}
		if cap(b.lws) < total {
			b.lws = make([]float64, total)
		}
		lws := b.lws[:total]

		// Advance every hypothesis where it lives and weigh its
		// branches, sharded across the pool. Workers write only their
		// own hypothesis's slots; the shared maps (segAcks, recent) are
		// read-only here.
		b.seg.end, b.seg.now, b.seg.sends, b.seg.out = segEnd, now, sends[si:sHi], out
		b.pool.Run(n, b.advance)

		// Sequential Bayesian reduce, in branch order — identical float
		// operations regardless of worker count. Survivors close ranks
		// in place.
		stats.Branches += total
		kept := 0
		var sum float64
		for j := range out {
			w := out[j].W * lws[j]
			// !(w > 0) also rejects NaN (a poisoned likelihood must
			// never propagate into the posterior).
			if !(w > 0) {
				stats.Rejected++
				continue
			}
			move(&out[kept], &out[j])
			out[kept].W = w
			sum += w
			kept++
		}
		if kept == 0 {
			// Nothing survived, so nothing has moved: out still holds
			// every branch with its unconditioned weight.
			if b.collapse(&stats) {
				// Re-seed from the prior at the collapse instant; the
				// segment's observations are abandoned (they condition
				// nothing a fresh prior could know about) and inference
				// restarts.
				out = reseedFromPrior(b.prior, segEnd, out)
				kept, sum = len(out), 1 // reseeded weights are already normalized
			} else {
				// Relax: keep the pre-segment posterior, advanced without
				// conditioning — every branch of the advance already run.
				for j := range out {
					w := out[j].W
					if w <= 0 {
						continue
					}
					move(&out[kept], &out[j])
					sum += w
					kept++
				}
			}
		}
		out = out[:kept]
		for j := range out {
			out[j].W /= sum
		}
		out, merged := compactInto(out, &b.byKey)
		stats.Merged += merged
		out, floored := floorAndCap(out, b.cfg.MinWeight, b.cfg.MaxHyps)
		stats.Floored += floored
		if total > n {
			// The posterior was built in next; the slots it left in
			// hyps, all dead now, become the spare buffer.
			b.next = b.hyps
		}
		b.hyps = out

		si, ai = sHi, aHi
		if segEnd == now {
			break
		}
		segStart = segEnd
	}

	stats.N = len(b.hyps)
	return b.end(now, len(sends), stats)
}

// compactInto merges hypotheses with identical canonical state keys,
// summing their weights — the paper's "compacted back into one state"
// (§3.2). It reports how many hypotheses were absorbed. Two hypotheses
// merge exactly when their Keys are equal (model.State.SameKey): a
// hypothesis joins the first survivor of its KeyHead bucket it equals,
// its weight added in hypothesis order, else it survives itself. ix is
// the caller's reused index.
func compactInto(hyps []Hypothesis, ix *keyIndex) ([]Hypothesis, int) {
	mask := ix.reset(len(hyps))
	out := hyps[:0]
outer:
	for j := range hyps {
		s := &hyps[j].S
		b := s.KeyHead() & mask
		for i := ix.head[b]; i != 0; i = ix.next[i-1] {
			if out[i-1].S.SameKey(s) {
				out[i-1].W += hyps[j].W
				continue outer
			}
		}
		k := len(out)
		ix.next[k], ix.head[b] = ix.head[b], int32(k+1)
		out = out[:k+1]
		move(&out[k], &hyps[j])
	}
	return out, len(hyps) - len(out)
}

// keyIndex is compactInto's reused chained index: head holds, per
// bucket, one plus the index of the bucket's latest survivor (0: empty),
// and next, parallel to the survivors, the one before it in the same
// bucket. Both only grow; a call clears only the buckets it uses.
type keyIndex struct {
	head, next []int32
}

// reset sizes the index for n hypotheses — a power-of-two bucket count
// at or above n — and returns the bucket mask.
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
func floorAndCap(hyps []Hypothesis, minW float64, maxN int) ([]Hypothesis, int) {
	out := hyps[:0]
	for j := range hyps {
		if hyps[j].W < minW {
			continue
		}
		out = out[:len(out)+1]
		move(&out[len(out)-1], &hyps[j])
	}
	if len(out) == 0 {
		// The floor annihilated everything (pathological minW), so
		// nothing has moved; keep the original set rather than dying.
		out = hyps
	}
	dropped := len(hyps) - len(out)
	if len(out) > maxN {
		sort.Slice(out, func(i, j int) bool { return out[i].W > out[j].W })
		dropped += len(out) - maxN
		out = out[:maxN]
	}
	var total float64
	for i := range out {
		total += out[i].W
	}
	for i := range out {
		out[i].W /= total
	}
	return out, dropped
}

// advanceOne is the pool job of one segment: it moves hypothesis i to
// the last of its output slots, enumerates its branches from there and
// leaves each branch's unconditioned weight in its slot and its
// likelihood in lws.
func (b *Exact) advanceOne(s *rollout.Scratch, i int) {
	sg := &b.seg
	last := int(b.offs[i+1]) - 1
	root := &sg.out[last]
	move(root, &b.hyps[i])
	hW := root.W
	soft := b.cfg.SoftSigma > 0
	s.Events = s.Events[:0]
	root.S.Enumerate(sg.end, sg.sends, &s.Events, last, 1, b.qs[i],
		func(j int) *model.State { return &sg.out[j].S },
		func(j int, w float64) {
			br := &sg.out[j]
			var lw float64
			if soft {
				lw = softLikelihood(s.Events, b.recent, sg.now, br.S.P.LossProb, b.cfg)
			} else {
				var matched int
				lw, matched = likelihood(s.Events, b.segAcks, br.S.P.LossProb, b.cfg)
				if matched < len(b.segAcks) {
					lw = 0 // an acknowledgment the branch cannot explain
				}
			}
			br.W, b.lws[j] = hW*w, lw
		})
}
