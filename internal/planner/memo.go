package planner

import (
	"math"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/rollout"
	"modelcc/internal/utility"
)

// MemoStats counts the rollout memo's traffic, so a hit-rate collapse
// shows without a profiler, and what became of the hypotheses it did not
// serve: of the Lookups − Hits − Shared gain vectors Decide had to
// produce, Derived were closed from a burst's first decision's log and the
// rest rolled, Stripped more rollouts remade logs that were gone, and of
// the candidate Lanes of all those rollouts Lanes − Closed were simulated.
// Like the memo's own counters these depend on how the fleet is
// partitioned: diagnostics, not results.
type MemoStats struct {
	// Lookups is how many hypotheses Decide keyed.
	Lookups int64
	// Hits were served the gain vector an earlier call stored.
	Hits int64
	// Shared had the key of an earlier hypothesis of the same call and
	// took its gains: the pair was rolled once.
	Shared int64
	// VerifyMismatches are primary-word matches whose verify word
	// differed: detected collisions, served as misses.
	VerifyMismatches int64
	// Overwrites are stores that displaced a different resident key.
	Overwrites int64
	// Lanes is how many candidate lanes the rolled hypotheses had (one per
	// candidate send time).
	Lanes int64
	// Closed lanes were never simulated: lagged twins of their baseline,
	// closed from its log (twinLog.close), and lanes dropped where they
	// forked. On a hypothesis twinGate passes every lane is one of these
	// but the Materialized.
	Closed int64
	// Materialized lanes were deferred as twins and simulated after all,
	// because an arrival left them no room.
	Materialized int64
	// Derived gain vectors were never rolled: a later decision of a burst
	// that missed the memo, closed at its depth from the burst's first
	// decision's log, gaps and idle forks included — only a premise the
	// log cannot establish sends one to the sweep (see Decide). A later
	// decision whose first one sent on a link that never idled is a memo
	// hit instead: that first decision stored every depth at once.
	Derived int64
	// Stripped rollouts were of a burst's first decision on behalf of a
	// later one that found the first one's log no longer at hand.
	Stripped int64
}

// Rolled is how many rollouts the counted calls ran.
func (s MemoStats) Rolled() int64 {
	return s.Lookups - s.Hits - s.Shared - s.Derived + s.Stripped
}

// Add accumulates o into s (fleets sum their partitions' memos).
func (s *MemoStats) Add(o MemoStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Shared += o.Shared
	s.VerifyMismatches += o.VerifyMismatches
	s.Overwrites += o.Overwrites
	s.Lanes += o.Lanes
	s.Closed += o.Closed
	s.Materialized += o.Materialized
	s.Derived += o.Derived
	s.Stripped += o.Stripped
}

// PoolMemoStats reports the counters of the rollout memo riding on p
// (zeros for a pool Decide has not planned on). Like everything on the
// pool it must not be called while a Decide holds p.
func PoolMemoStats(p *rollout.Pool) MemoStats {
	if ar, ok := p.Aux.(*decideArena); ok {
		return ar.memo.MemoStats
	}
	return MemoStats{}
}

// memoKey identifies what one planning rollout depends on: a primary
// word that picks the slot and an independently seeded verify word. An
// entry is served only when both match — the PolicyCache discipline: a
// primary match with a verify mismatch is a miss, never a served vector.
type memoKey struct{ primary, verify uint64 }

var memoSeed = memoKey{primary: model.HashSeed, verify: model.VerifySeed}

// mix folds one word into both streams (see model.Mix).
func (k memoKey) mix(v uint64) memoKey {
	k.primary, k.verify = model.Mix(k.primary, k.verify, v)
	return k
}

// hypKey hashes a hypothesis's rollout key, the long part of a memo key
// and the same under whatever the call plans with.
func hypKey(words []uint64) memoKey {
	k := memoSeed
	for _, w := range words {
		k = k.mix(w)
	}
	return k
}

// planKey hashes what every rollout of one Decide call shares: the
// utility and grid constants and the pending sends, rebased to now.
// Sequence numbers are excluded (they label events, never steer them).
func planKey(pending []model.Send, now time.Duration, cfg Config) memoKey {
	k := memoSeed.
		mix(math.Float64bits(cfg.Util.Alpha)).
		mix(uint64(cfg.Util.Kappa)).
		mix(math.Float64bits(cfg.Util.CrossLatencyPenalty)).
		mix(uint64(cfg.MaxDelay)).
		mix(uint64(cfg.Grid)).
		mix(uint64(cfg.Horizon)).
		mix(uint64(len(pending)))
	for _, snd := range pending {
		k = k.mix(uint64(snd.At - now)).mix(uint64(snd.Bits))
	}
	return k
}

// under completes a hypothesis's key with the plan it is rolled under.
// The plan goes in last, as its two hash words, so that a hypothesis is
// mixed once however many plans it is keyed under — a burst's later
// decision keys it under its own pending sends and under the burst's
// first (see Decide). The verify word is forced odd so no key equals an
// empty slot.
func (k memoKey) under(plan memoKey) memoKey {
	k = k.mix(plan.primary).mix(plan.verify)
	k.verify |= 1
	return k
}

// memoSlotBits sizes the direct-mapped memo: 4 Ki entries. Recurrence
// is temporally local — staggered fleet members reach the same relative
// state milliseconds apart — so a small table already gets most of it.
// Over a 256-sender fleet's 10 → 23 s window (seed 42, one worker),
// 73.5 % of 617,708 keyed hypotheses hit at 4 Ki slots, 75.7 % at
// 16 Ki and 76.7 % at 64 Ki; rollouts fall only 95,200 → 92,052.
const memoSlotBits = 12

// rolloutMemo maps a memoKey to the per-candidate gain vector its
// rollout produced, or the log of a burst's first decision closed. A hit
// returns bit for bit what recomputing would, so eviction order, worker
// width and shard count cannot reach a decision. Direct-mapped, fixed
// size, the vectors allocated on the first store.
type rolloutMemo struct {
	MemoStats
	stride int       // gains per entry: the candidate count
	keys   []memoKey // zero value = empty slot
	gains  []float64 // slot i owns gains[i*stride : (i+1)*stride]
}

func memoSlot(k memoKey) int { return int(k.primary >> (64 - memoSlotBits)) }

// lookup copies the stored gains for k into dst and reports whether it
// had them.
func (m *rolloutMemo) lookup(k memoKey, dst []float64) bool {
	m.Lookups++
	if len(dst) != m.stride {
		return false
	}
	slot := memoSlot(k)
	e := m.keys[slot]
	if e.primary != k.primary {
		return false
	}
	if e.verify != k.verify {
		m.VerifyMismatches++
		return false
	}
	m.Hits++
	copy(dst, m.gains[slot*m.stride:])
	return true
}

// store records src as k's gains, displacing whatever held the slot.
func (m *rolloutMemo) store(k memoKey, src []float64) {
	if len(src) != m.stride {
		// First store, or a caller with a different candidate grid
		// (its keys could never match the resident ones): start over.
		m.stride = len(src)
		m.keys = make([]memoKey, 1<<memoSlotBits)
		m.gains = make([]float64, len(m.keys)*m.stride)
	}
	slot := memoSlot(k)
	if e := m.keys[slot]; e != k && e != (memoKey{}) {
		m.Overwrites++
	}
	m.keys[slot] = k
	copy(m.gains[slot*m.stride:], src)
}

// twinDepth is how many packets behind a burst's first decision a later
// one may be and still close from its log. On a 256-sender fleet every
// wake that plans live decides four times — send, send, send, sleep.
const twinDepth = 3

// delivery is a delivery of the baseline near H: its instant and A there.
type delivery struct {
	at time.Duration
	a  float64
}

// twinLog is what the baseline's sweep of a lagged-twin hypothesis
// writes, and what every candidate of every decision of a burst closes
// from (twinLog.close): a burst's first decision keeps it per hypothesis
// index (decideArena.logs) under key, with reach (0: no log, else one more
// than the deepest later decision it establishes) and the depths derive
// has closed; a later decision's own sweep writes the worker's. It holds
// the hypothesis's and the plan's constants; where the log starts (u0) and
// ends (logEnd; A there aEnd); until when each watch level held (clean[L]);
// the deliveries in H's last (twinDepth+1)·ℓ (win, from winFrom, where A
// was aWin); the gaps the link idled through (all; A(Dry) in Value); a
// twinCand per candidate; the view the closure reads (gaps, the first of
// all, to end: twinLog.view); and the slips of the lags it carried.
type twinLog struct {
	key                      memoKey
	reach, closed            int
	now, u0, horizon, logEnd time.Duration
	lag                      time.Duration
	x, capBits               int64
	kappa, aEnd              float64
	clean                    [twinDepth + 2]time.Duration
	winFrom                  time.Duration
	aWin                     float64
	win                      []delivery
	all, gaps                []model.Gap
	end                      time.Duration
	cands                    []twinCand
	slips                    [16]twinSlip
}

// twinSlip memoizes a lag's slip under κ (twinLog.slip). It outlives
// views and sweeps.
type twinSlip struct {
	e           time.Duration
	kappa, slip float64
}

// twinCand is a candidate's part of a twin log: its fork instant at, u
// (BacklogDone there, or at on an idle link), A(u), its packet's value at
// u+ℓ (pkt, 0 past H), and what its admission behind a later decision's
// baseline depends on — the baseline's room for it (room) and the bits in
// service there for served (in; 0 when idle).
type twinCand struct {
	u, at, served time.Duration
	a, pkt        float64
	room, in      int64
	gi            int // the first gap a lag from u is carried through
}

// decideArena is Decide's pool-resident state, riding rollout.Pool.Aux:
// the buffers one call fills before and after its parallel section —
// so a live decision allocates none of them — and the rollout memo.
type decideArena struct {
	// The top-K copy of a wake's support and its rollout-key hashes, taken
	// for wake (a Wake.id) under maxHyps and penalty (begin), and the index
	// a support wider than maxHyps is ordered by.
	hyps    []belief.Hypothesis
	hkeys   []memoKey
	order   byWeight
	wake    uint64
	maxHyps int
	penalty bool

	stops []time.Duration
	gains []float64
	words []uint64
	keys  []memoKey
	// from[i] is the earlier index whose gains hypothesis i copies, or
	// -1 when it has its own (rolled, derived, or served from the memo).
	from []int32
	// firsts indexes the call's fresh hypotheses by key, so a later one
	// with an equal key finds the one it copies.
	firsts freshIndex
	// fresh lists the hypotheses whose gains this call produces: roll are
	// swept under the call's plan, bare under a burst's first (into bgains).
	// logs[i] is the log of the last first decision swept at index i; spare
	// holds a vector closed from one on the way.
	fresh, roll, bare []int32
	bgains, spare     []float64
	logs              []twinLog
	later             []model.Send
	memo              rolloutMemo

	// The pass in flight, as sweep reads it on the pool's workers: the
	// hypotheses to sweep, the sends committed, and where the gains go.
	pending    []model.Send
	out        []float64
	now        time.Duration
	seq        int64
	util       utility.Config
	candidates int
	// twins: the call passes the call-level half of twinGate, so a sweep
	// asks each hypothesis the rest; keeps: the pass sweeps a burst's first
	// decision, whose log logs[i] keeps for the later ones.
	twins, keeps bool
	sweepFn      func(*rollout.Scratch, int) // ar.sweep, bound once
}

func arenaOf(p *rollout.Pool) *decideArena {
	ar, _ := p.Aux.(*decideArena)
	if ar == nil {
		ar = &decideArena{}
		ar.sweepFn = ar.sweep
		p.Aux = ar
	}
	return ar
}

// freshIndex finds, in O(1), the first hypothesis of a Decide call to
// have missed the memo with a given key — the one a later hypothesis with
// that key shares (MemoStats.Shared). It is an open-addressed table of
// index+1 over the call's keys (0: empty), at most half full, cleared per
// call and sized for the widest support a default plan reads, so a live
// decision allocates nothing for it.
type freshIndex struct {
	slots []int32
	mask  uint64
}

// reset empties the index for a call over n ≤ width hypotheses.
func (x *freshIndex) reset(n, width int) {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	if cap(x.slots) < size {
		c := size
		for c < 2*width {
			c <<= 1
		}
		x.slots = make([]int32, c)
	}
	x.slots = x.slots[:size]
	clear(x.slots)
	x.mask = uint64(size - 1)
}

// claim returns the hypothesis already indexed under keys[i], or indexes
// i under it and returns -1.
func (x *freshIndex) claim(keys []memoKey, i int) int32 {
	for h := keys[i].primary & x.mask; ; h = (h + 1) & x.mask {
		j := x.slots[h] - 1
		if j < 0 {
			x.slots[h] = int32(i) + 1
			return -1
		}
		if keys[j] == keys[i] {
			return j
		}
	}
}
