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
// produce, Derived came from a twin record and the rest from a rollout,
// Stripped more rollouts made the records that were missing, and of the
// candidate Lanes of all those rollouts Lanes − Closed − Drained were
// simulated, Materialized of those after a deferral. Like the memo's own
// counters these depend on how the fleet is partitioned, so they are
// diagnostics, not results.
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
	// Closed lanes were never simulated: lagged twins of their baseline to
	// the horizon or until its idle time absorbed the lag, their gain closed
	// from the baseline's running value (see Decide's sixth economy).
	Closed int64
	// Drained lanes were never simulated either: candidates of a hypothesis
	// nothing arrives at to the horizon, each gain its packet's own value
	// (see Decide's eighth economy).
	Drained int64
	// Materialized lanes were deferred as twins and simulated after all,
	// because an arrival left them no room.
	Materialized int64
	// Derived gain vectors were never rolled: a later decision of a burst,
	// computed from the twin record of the burst's first (see Decide's
	// seventh economy).
	Derived int64
	// Stripped rollouts were of a burst's first decision on behalf of a
	// later one that found no record of it.
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
	s.Drained += o.Drained
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
// first (Decide's seventh economy). The verify word is forced odd so no
// key equals an empty slot.
func (k memoKey) under(plan memoKey) memoKey {
	k = k.mix(plan.primary).mix(plan.verify)
	k.verify |= 1
	return k
}

// memoSlotBits sizes the direct-mapped memo: 4 Ki entries. Recurrence
// is temporally local — staggered fleet members reach the same relative
// state milliseconds apart — so a small table already gets most of it
// (on a 256-sender fleet 39 % of keyed hypotheses hit at 4 Ki slots and
// 64 Ki add 4 points).
const memoSlotBits = 12

// rolloutMemo maps a memoKey to the per-candidate gain vector its
// rollout produced and, when that rollout ran in the lagged-twin mode
// under a burst's first plan, to its twin record. A hit returns bit for
// bit what recomputing would, so eviction order, worker width and shard
// count cannot reach a decision. Direct-mapped, fixed size, the vectors
// allocated on the first store and the records on the first that has one.
type rolloutMemo struct {
	MemoStats
	stride int       // gains per entry: the candidate count
	keys   []memoKey // zero value = empty slot
	gains  []float64 // slot i owns gains[i*stride : (i+1)*stride]
	recs   twinRecords
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

// record returns the twin record stored with k's gains, if k is resident
// and has one. It is not a lookup: nothing is counted.
func (m *rolloutMemo) record(k memoKey, candidates int) (rec twinRecord, ok bool) {
	if candidates != m.stride || m.recs.reach == nil {
		return rec, false
	}
	slot := memoSlot(k)
	if m.keys[slot] != k {
		return rec, false
	}
	return m.recs.at(slot, m.stride), m.recs.reach[slot] > 0
}

// store records src as k's gains, displacing whatever held the slot, its
// twin record included.
func (m *rolloutMemo) store(k memoKey, src []float64) {
	if len(src) != m.stride {
		// First store, or a caller with a different candidate grid
		// (its keys could never match the resident ones): start over.
		m.stride = len(src)
		m.keys = make([]memoKey, 1<<memoSlotBits)
		m.gains = make([]float64, len(m.keys)*m.stride)
		m.recs = twinRecords{}
	}
	slot := memoSlot(k)
	if e := m.keys[slot]; e != k && e != (memoKey{}) {
		m.Overwrites++
	}
	m.keys[slot] = k
	copy(m.gains[slot*m.stride:], src)
	if m.recs.reach != nil {
		m.recs.reach[slot] = 0
	}
}

// keep records rec as the twin record of k, whose gains have just been
// stored.
func (m *rolloutMemo) keep(k memoKey, rec twinRecord) {
	if m.recs.reach == nil {
		m.recs.size(len(m.keys), m.stride)
	}
	m.recs.at(memoSlot(k), m.stride).set(rec)
}

// twinDepth is L, how far behind a burst's first decision a later one may
// be and still be derived from its twin record: the baseline of the
// decision after m sends at one instant is the first one's, m service
// times late. Counted on a 256-sender fleet, every wake that plans live
// decides four times — send, send, send, sleep — and none went deeper; a
// deeper call is rolled as it always was.
const twinDepth = 3

// noDrop marks a candidate no decision of a burst finds tail-dropped.
const noDrop = 0xff

// twinHead is the part of a twin record that does not grow with the
// candidate count.
type twinHead struct {
	// slip is 1 − e^(−ℓ/κ), what a delivery loses by leaving ℓ later.
	slip float64
	// tail[i] is A(H − i·ℓ): the baseline's discounted value delivered
	// by then.
	tail [twinDepth + 2]float64
}

// twinRecord is what a lagged-twin rollout of a burst's first decision
// leaves for the later ones (see Decide's seventh economy): per candidate
// k the value pkt[k] of its packet delivered at u_k+ℓ, the baseline's value
// au[k] = A(u_k), and the shallowest depth drop[k] at which the packet is
// tail-dropped on arrival (noDrop: at none within reach); the head; and
// reach, 0 for no record, else one more than the depth down to which a
// burst's decisions derive from it (1: a record that says none do). It is
// a view into a twinRecords.
type twinRecord struct {
	reach *uint8
	*twinHead
	pkt, au []float64
	drop    []uint8
}

// set copies src's contents into the storage rec views.
func (rec twinRecord) set(src twinRecord) {
	*rec.reach, *rec.twinHead = *src.reach, *src.twinHead
	copy(rec.pkt, src.pkt)
	copy(rec.au, src.au)
	copy(rec.drop, src.drop)
}

// gain is the closed form for candidate k of the burst's decision at
// depth m, less that depth's common discount (derive). By the theorem
// (model.State.BacklogDone) the decision's baseline is the record's m·ℓ
// late; the candidate's packet, x bits that survive the last mile with
// probability 1−p, leaves at u+(m+1)·ℓ; what the record's baseline
// delivers in (u, H−(m+1)·ℓ] leaves one ℓ later than it does in the
// decision's; and what it delivers in (H−(m+1)·ℓ, H−m·ℓ] falls out. With
// A(t) the record's baseline's discounted value delivered by t and κ the
// discount timescale the gain is
//
//	e^(−mℓ/κ) · [x·(1−p)·e^(−(u+ℓ−now)/κ) − (1−e^(−ℓ/κ))·(A(H−(m+1)ℓ) − A(u)) − (A(H−mℓ) − A(H−(m+1)ℓ))]
//
// and this is the bracket. At depth 0 it is the gain of a lane closed
// where it was rolled.
func (rec twinRecord) gain(m, k int) float64 {
	return rec.pkt[k] - rec.slip*(rec.tail[m+1]-rec.au[k]) - (rec.tail[m] - rec.tail[m+1])
}

// derive writes the gain vector of the burst's decision at depth m ≥ 1
// into gains, and reports false, gains untouched, when the record does
// not reach that deep.
func (rec twinRecord) derive(m int, gains []float64) bool {
	if int(*rec.reach) <= m {
		return false
	}
	late := 1.0
	for i := 0; i < m; i++ {
		late *= 1 - rec.slip
	}
	for k := range gains {
		if int(rec.drop[k]) <= m {
			gains[k] = 0 // dropped where it forks: the candidate is its baseline
			continue
		}
		gains[k] = late * rec.gain(m, k)
	}
	return true
}

// twinRecords stores twin records of one candidate count back to back,
// their reaches apart: whether a hypothesis has a record is asked of every
// hypothesis a call sweeps, and should not cost it a cache line.
type twinRecords struct {
	reach   []uint8
	head    []twinHead
	pkt, au []float64
	drop    []uint8
}

// size makes room for n records of the given candidate count; what the
// old ones held is kept only if nothing had to grow.
func (r *twinRecords) size(n, candidates int) {
	if cap(r.head) < n || cap(r.drop) < n*candidates {
		room := max(n, cap(r.head)*3/2) // a support grows a hypothesis at a time
		r.reach = make([]uint8, room)
		r.head = make([]twinHead, room)
		r.pkt = make([]float64, room*candidates)
		r.au = make([]float64, room*candidates)
		r.drop = make([]uint8, room*candidates)
	}
	r.reach, r.head = r.reach[:n], r.head[:n]
	r.pkt, r.au, r.drop = r.pkt[:n*candidates], r.au[:n*candidates], r.drop[:n*candidates]
}

// at views record i.
func (r *twinRecords) at(i, candidates int) twinRecord {
	lo, hi := i*candidates, (i+1)*candidates
	return twinRecord{&r.reach[i], &r.head[i], r.pkt[lo:hi], r.au[lo:hi], r.drop[lo:hi]}
}

// decideArena is Decide's pool-resident state, riding rollout.Pool.Aux:
// the buffers one call fills before and after its parallel section —
// so a live decision allocates none of them — and the rollout memo.
type decideArena struct {
	// The top-K copy of a wake's support and its rollout-key hashes, taken
	// for wake (a Wake.id) under maxHyps and stamps (begin), and the index
	// a support wider than maxHyps is ordered by.
	hyps    []belief.Hypothesis
	hkeys   []memoKey
	order   byWeight
	wake    uint64
	maxHyps int
	stamps  bool

	stops []time.Duration
	gains []float64
	words []uint64
	keys  []memoKey
	// from[i] is the earlier index whose gains hypothesis i copies, or
	// -1 when it has its own (rolled, derived, or served from the memo).
	from []int32
	// fresh lists the hypotheses whose gains this call produces; of them
	// roll are swept under the call's plan and, in a burst's later
	// decision (see Decide), bare under the burst's first plan — keyed
	// bkeys[i], into their rows of bgains. recs holds, per hypothesis, the
	// twin record of its last sweep.
	fresh, roll, bare []int32
	bkeys             []memoKey
	bgains            []float64
	recs              twinRecords
	memo              rolloutMemo

	// The pass in flight, as sweep reads it on the pool's workers: the
	// hypotheses to sweep, the sends committed, and where the gains go.
	pending    []model.Send
	out        []float64
	now        time.Duration
	seq        int64
	util       utility.Config
	candidates int
	// twins: the call passes the call-level half of twinGate and
	// drainGate, so a sweep asks each hypothesis the rest.
	twins   bool
	sweepFn func(*rollout.Scratch, int) // ar.sweep, bound once
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
