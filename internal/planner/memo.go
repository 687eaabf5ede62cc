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
// shows without a profiler, and what became of the candidate lanes of
// the hypotheses that were rolled (Lookups − Hits − Shared of them):
// Lanes − Closed were simulated, Materialized of those after a deferral.
// Like the memo's own counters the lane counts depend on how the fleet
// is partitioned, so they are diagnostics, not results.
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
	// the horizon, their gain closed from the baseline's running value
	// (see Decide's sixth economy).
	Closed int64
	// Materialized lanes were deferred as twins and simulated after all,
	// because the baseline's link idled or an arrival left them no room.
	Materialized int64
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

// hypKey extends the call's plan key with the hypothesis's rollout key.
// The verify word is forced odd so no key equals an empty slot.
func hypKey(plan memoKey, words []uint64) memoKey {
	k := plan
	for _, w := range words {
		k = k.mix(w)
	}
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
// rollout produced. A hit returns bit for bit what recomputing would,
// so eviction order, worker width and shard count cannot reach a
// decision. Direct-mapped, fixed size, allocated on first store.
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

// decideArena is Decide's pool-resident state, riding rollout.Pool.Aux:
// the buffers one call fills before and after its parallel section —
// so a live decision allocates none of them — and the rollout memo.
type decideArena struct {
	hyps  []belief.Hypothesis
	stops []time.Duration
	gains []float64
	words []uint64
	keys  []memoKey
	// from[i] is the earlier index whose gains hypothesis i copies, or
	// -1 when it has its own (rolled, or served from the memo).
	from []int32
	roll []int32
	memo rolloutMemo

	// The call in flight, as sweep reads it on the pool's workers.
	pending    []model.Send
	now        time.Duration
	seq        int64
	util       utility.Config
	candidates int
	// twins: the call passes twinGate's call-level half.
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
