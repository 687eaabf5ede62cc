// Package planner implements the ISENDER's action selection (§3.2–3.3):
// at every wakeup it "makes a list of strategies including sending
// immediately and at every delay up to the slowest rate", evaluates the
// consequences of each strategy on each possible network configuration,
// and chooses the strategy maximizing the expected utility.
//
// A strategy is "inject the next packet at now+δ" for δ on a grid from 0
// to MaxDelay. For each hypothesis the planner clones the state and rolls
// it forward deterministically (gate frozen, loss in expectation — see
// DESIGN.md for why these planning approximations do not change the
// argmax in the paper's configurations), accumulating the utility of all
// own and cross deliveries over a common horizon. Candidate utilities are
// measured relative to the no-send rollout of the same hypothesis, which
// keeps the differences well-conditioned: the large cross-traffic
// background term cancels exactly.
//
// A planning rollout reads far less of a hypothesis than compaction or
// the PolicyCache fingerprint do, and Decide exploits it: the rollout
// memo keys each hypothesis by model.State.AppendRolloutKey — link rate,
// buffer cap, packet size, loss probability; what is in service and
// queued as (bits, own); every time relative to the decision instant;
// the pinger's chunk, interval and phase only while its gate is on;
// enqueue stamps only under a cross-latency penalty; the absolute
// instant only under clock skew — followed by the pending sends as
// (At − now, bits) and the plan constants (Util, MaxDelay, Grid,
// Horizon). Left out, each because the sweep cannot observe it:
// ParamsID (a label), the toggle grid and MeanSwitch (the gate is
// frozen), the cross rate of a gated-off pinger (it only ticks a clock),
// sequence numbers (they label events), and the weight (applied after
// the sweep, in the reduce). Fleet members in the same relative state
// milliseconds apart, and hypotheses of one belief that differ only in
// what is left out, therefore roll once; see rolloutMemo.
//
// Ties break toward the longest delay. This is what turns the utility
// maximization into pacing: when the queue already guarantees a packet's
// delivery time, sending it any earlier buys nothing, so the sender
// waits — and it is also why an α ≥ 1 sender never overflows the buffer
// (Figure 3's headline behaviour).
package planner

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/rollout"
	"modelcc/internal/utility"
)

// Config tunes the planner.
type Config struct {
	// Util is the utility function being maximized.
	Util utility.Config
	// MaxDelay bounds the candidate grid: the longest the sender will
	// commit to sleeping before re-deciding. The default, 2.4 s, is two
	// packet times at the slowest prior link rate in the paper's
	// experiment (10 kbit/s), honouring "every delay up to the slowest
	// rate the ISENDER could optimally send".
	MaxDelay time.Duration
	// Grid is the candidate spacing (default 200 ms).
	Grid time.Duration
	// Horizon extends each rollout beyond the last candidate send so
	// that queued consequences (displaced cross packets, induced drops)
	// are counted — the paper's "until the consequences of each
	// hypothetically sent packet have ceased to linger". The default,
	// 30 s, covers the drain of the largest prior buffer plus the
	// displacement tail a sent packet pushes through the cross traffic.
	Horizon time.Duration
	// MaxHyps plans against at most this many of the heaviest
	// hypotheses, renormalized (default 256). Planning cost is linear
	// in it; the discarded tail carries negligible posterior mass.
	MaxHyps int
	// Workers shards the per-hypothesis rollouts across a worker pool:
	// 0 means GOMAXPROCS, 1 forces the serial path. The decision is
	// bit-identical for every worker count — per-hypothesis results are
	// written into per-index slots and reduced in index order.
	Workers int
	// Pool, when non-nil, supplies the worker pool instead of Decide
	// checking one out of the per-width cache. A fleet of senders
	// (internal/fleet) plans every member on the same pool so one set of
	// scratch arenas serves the whole fleet. The pool must not be used
	// from multiple goroutines at once. The decision is bit-identical
	// for any pool width.
	Pool *rollout.Pool
}

// DefaultConfig returns the planning parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		Util:     utility.Default(),
		MaxDelay: 2400 * time.Millisecond,
		Grid:     200 * time.Millisecond,
		Horizon:  40 * time.Second,
		MaxHyps:  256,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxDelay <= 0 {
		c.MaxDelay = d.MaxDelay
	}
	if c.Grid <= 0 {
		c.Grid = d.Grid
	}
	if c.Horizon <= 0 {
		c.Horizon = d.Horizon
	}
	if c.MaxHyps <= 0 {
		c.MaxHyps = d.MaxHyps
	}
	if c.Util.Kappa <= 0 {
		c.Util.Kappa = d.Util.Kappa
	}
	return c
}

// Decision is the planner's chosen action.
type Decision struct {
	// SendNow is true when the best strategy is to inject immediately.
	SendNow bool
	// WakeAt is the absolute time to re-decide when not sending now
	// (the chosen δ's send time; the sender re-plans on wake, so an
	// acknowledgment arriving earlier simply re-decides sooner).
	WakeAt time.Duration
	// Gain is the chosen candidate's expected utility advantage over
	// the no-send baseline.
	Gain float64
	// Candidates is how many delays were evaluated.
	Candidates int
	// Support is how many hypotheses the plan was computed against.
	Support int
}

// lockstepChunk is how often a candidate rollout is checked for
// reconvergence with its baseline. Coarser chunks amortize the Run-loop
// entry cost; finer ones stop dead rollouts sooner.
const lockstepChunk = time.Second

// Decide selects the expected-utility-maximizing action at `now` for the
// packet with sequence number seq. pending are sends already committed
// but not yet folded into the belief (they are replayed in every
// rollout, so successive decisions within one wakeup see each other's
// queue occupancy).
//
// The per-hypothesis work is one forward sweep over a grid of sync
// stops (every candidate send time, then every lockstepChunk), built
// for the rollout engine's four economies. (1) The no-send baseline is
// simulated exactly once; each candidate forks from it in place when
// the sweep reaches its send time, so [now, now+δ) is never
// re-simulated. (2) Candidates advance alongside the baseline and
// retire at the first stop where their state coincides with it —
// identical states have identical futures (the hypothesis is
// deterministic during planning: gate frozen, loss in expectation), so
// every later utility term cancels and the accumulated gain is final;
// the sweep itself ends when every candidate has retired, which in
// steady state cuts the simulated span from the 40 s Horizon to the few
// seconds the extra packet's consequences actually linger. (3)
// Hypotheses are sharded across cfg.Workers, each with a scratch arena
// of states, discount meters, and event buffers, and the call's own
// buffers live on the pool, so the steady-state decision allocates
// almost nothing. (4) Each distinct hypothesis is swept once: before
// the sweep every hypothesis is keyed by exactly what the sweep reads
// of it (see the package comment), equal keys within the call share one
// sweep, and a key an earlier call on the same pool stored takes that
// call's per-candidate gain vector. A hit is bit for bit what the sweep
// would have produced, and the weight reduce below is unchanged, so the
// memo can be cold, warm, wrapped or shared by any set of senders
// without reaching a Decision.
func Decide(sup []belief.Hypothesis, pending []model.Send, now time.Duration, seq int64, cfg Config) Decision {
	cfg = cfg.withDefaults()
	pool := cfg.Pool
	if pool == nil {
		pool = acquirePool(cfg.Workers)
		defer releasePool(pool)
	}
	ar := arenaOf(pool)
	ar.hyps = appendTopK(ar.hyps[:0], sup, cfg.MaxHyps)
	hyps := ar.hyps

	horizonEnd := now + cfg.MaxDelay + cfg.Horizon
	candidates := int(cfg.MaxDelay/cfg.Grid) + 1

	// Sync stops: candidate send times on the Grid, chunk boundaries to
	// the horizon, horizonEnd itself. stops[k] for k < candidates is
	// candidate k's send time.
	stops := ar.stops[:0]
	for k := 0; k < candidates; k++ {
		stops = append(stops, now+time.Duration(k)*cfg.Grid)
	}
	for t := now + cfg.MaxDelay + lockstepChunk; t < horizonEnd; t += lockstepChunk {
		stops = append(stops, t)
	}
	stops = append(stops, horizonEnd)
	ar.stops = stops

	// gains[i*candidates+k] is hypothesis i's utility advantage of
	// sending at now+k·Grid over not sending, relative to decision time
	// now. Per-index slots keep the parallel fill deterministic.
	n := len(hyps)
	ar.gains = slices.Grow(ar.gains[:0], n*candidates)[:n*candidates]
	gains := ar.gains
	row := func(i int) []float64 { return gains[i*candidates : (i+1)*candidates] }

	// Memo look-ups, in index order on this goroutine: a hypothesis whose
	// key an earlier call stored takes that gain vector, one whose key an
	// earlier hypothesis of this call has shares its rollout, and only
	// the rest (roll) are swept.
	stamps := cfg.Util.CrossLatencyPenalty > 0
	plan := planKey(pending, now, cfg)
	ar.keys = slices.Grow(ar.keys[:0], n)[:n]
	ar.from = slices.Grow(ar.from[:0], n)[:n]
	keys, from, roll := ar.keys, ar.from, ar.roll[:0]
	for i := range hyps {
		ar.words = hyps[i].S.AppendRolloutKey(ar.words[:0], now, stamps)
		keys[i] = hypKey(plan, ar.words)
		from[i] = -1
		if ar.memo.lookup(keys[i], row(i)) {
			continue
		}
		for _, j := range roll {
			if keys[j] == keys[i] {
				from[i] = j
				ar.memo.Shared++
				break
			}
		}
		if from[i] < 0 {
			roll = append(roll, int32(i))
		}
	}
	ar.roll = roll

	pool.Run(len(roll), func(s *rollout.Scratch, r int) {
		i := int(roll[r])
		h := &hyps[i]
		p := h.S.P.LossProb
		ds, _ := s.Aux.(*decideScratch)
		if ds == nil {
			ds = &decideScratch{}
			s.Aux = ds
		}
		ds.ensure(candidates)

		base := &s.Base
		h.S.CloneInto(base)
		ds.baseMeter.Reset(cfg.Util, now, p)

		forked, live := 0, 0
		fork := func(k int) {
			base.CloneInto(&ds.cands[k])
			ds.meters[k].Reset(cfg.Util, now, p)
			ds.gains[k] = 0
			ds.done[k] = false
			// The candidate's own send, then any pending sends still
			// in the future (all pending are <= now in practice, so
			// the tail is normally empty); At-order holds by
			// construction.
			cs := append(ds.candSends[k][:0], model.Send{Seq: seq, At: stops[k]})
			for _, snd := range pending {
				if snd.At > stops[k] {
					cs = append(cs, snd)
				}
			}
			ds.candSends[k] = cs
			ds.sendIdx[k] = 0
			forked++
			live++
		}

		// Baseline to the first stop (= now), consuming pending sends
		// due by then; then the sweep forks candidate 0.
		si := 0
		for si < len(pending) && pending[si].At <= stops[0] {
			si++
		}
		s.Events = s.Events[:0]
		base.Run(stops[0], pending[:si], &s.Events)
		ds.baseMeter.Add(s.Events)
		fork(0)

		for j := 1; j < len(stops) && (forked < candidates || live > 0); j++ {
			t := stops[j]
			hi := si
			for hi < len(pending) && pending[hi].At <= t {
				hi++
			}
			s.Events = s.Events[:0]
			base.Run(t, pending[si:hi], &s.Events)
			si = hi
			baseSegU := ds.baseMeter.Add(s.Events)

			for k := 0; k < forked; k++ {
				if ds.done[k] {
					continue
				}
				cs := ds.candSends[k]
				cHi := ds.sendIdx[k]
				for cHi < len(cs) && cs[cHi].At <= t {
					cHi++
				}
				s.Events = s.Events[:0]
				ds.cands[k].Run(t, cs[ds.sendIdx[k]:cHi], &s.Events)
				ds.sendIdx[k] = cHi
				ds.gains[k] += ds.meters[k].Add(s.Events) - baseSegU
				// Identical states with identical remaining sends
				// have identical futures: every later utility term
				// cancels, so this candidate's gain is final. (The
				// send streams differ only by the candidate's own
				// packet, consumed by the first stop after its fork.)
				if ds.cands[k].EqualDynamic(base) {
					ds.done[k] = true
					live--
				}
			}
			if j < candidates {
				fork(j)
			}
		}
		copy(row(i), ds.gains)
	})
	// Shares and stores, again in index order on this goroutine.
	for i, j := range from {
		if j >= 0 {
			copy(row(i), row(int(j)))
		}
	}
	for _, i := range roll {
		ar.memo.store(keys[i], row(int(i)))
	}

	// Sequential reduce, candidate-major like the serial planner: ties
	// keep preferring the later send time (pacing). The tie widens to a
	// band of tieEps — 1e-6 of one packet's utility, the natural scale
	// of a gain — because at the α=1 knife edge, where a sent packet's
	// gain and the cross packet it displaces cancel exactly, rounding
	// noise must not masquerade as a reason to send. Scaling to packet
	// utility (rather than an absolute constant) keeps the band
	// meaningful for small-κ configurations where all utilities shrink.
	var tieEps float64
	for i := range hyps {
		if b := 1e-6 * float64(hyps[i].S.P.PktBits()); b > tieEps {
			tieEps = b
		}
	}
	bestDelta := 0
	maxGain := negInf
	chosenGain := negInf
	for k := 0; k < candidates; k++ {
		var gain float64
		for i := range hyps {
			gain += hyps[i].W * gains[i*candidates+k]
		}
		if gain > maxGain {
			maxGain = gain
		}
		if gain >= maxGain-tieEps {
			bestDelta = k
			chosenGain = gain
		}
	}

	d := Decision{
		Gain:       chosenGain,
		Candidates: candidates,
		Support:    len(hyps),
	}
	if bestDelta == 0 {
		d.SendNow = true
		d.WakeAt = now
		return d
	}
	d.WakeAt = now + time.Duration(bestDelta)*cfg.Grid
	return d
}

const negInf = -1e308

// decideScratch is a worker's planner-specific arena: one live state,
// meter, gain cell, and send view per candidate, reused across decisions
// via rollout.Scratch.Aux.
type decideScratch struct {
	baseMeter utility.Meter
	cands     []model.State
	meters    []utility.Meter
	gains     []float64
	done      []bool
	candSends [][]model.Send
	sendIdx   []int
}

func (ds *decideScratch) ensure(k int) {
	if cap(ds.cands) < k {
		ds.cands = make([]model.State, k)
		ds.meters = make([]utility.Meter, k)
		ds.gains = make([]float64, k)
		ds.done = make([]bool, k)
		ds.candSends = make([][]model.Send, k)
		ds.sendIdx = make([]int, k)
	}
	ds.cands = ds.cands[:k]
	ds.meters = ds.meters[:k]
	ds.gains = ds.gains[:k]
	ds.done = ds.done[:k]
	ds.candSends = ds.candSends[:k]
	ds.sendIdx = ds.sendIdx[:k]
}

// poolCache keeps the rollout pools of pool-less callers (a solo
// sender, RunISender, Guard's background Decide) between calls, a free
// list per width: each call checks one out for its duration, so
// concurrent callers never share one, and what a pool has built — its
// scratch states, Decide's arena, the rollout memo — outlives garbage
// collections (a sync.Pool is emptied by every cycle).
var poolCache struct {
	sync.Mutex
	free map[int][]*rollout.Pool
}

func acquirePool(width int) *rollout.Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	poolCache.Lock()
	defer poolCache.Unlock()
	l := poolCache.free[width]
	if len(l) == 0 {
		return rollout.New(width)
	}
	p := l[len(l)-1]
	poolCache.free[width] = l[:len(l)-1]
	return p
}

func releasePool(p *rollout.Pool) {
	poolCache.Lock()
	defer poolCache.Unlock()
	if poolCache.free == nil {
		poolCache.free = make(map[int][]*rollout.Pool)
	}
	poolCache.free[p.Workers()] = append(poolCache.free[p.Workers()], p)
}

// topK returns the k heaviest hypotheses, renormalized. It copies; the
// input order is preserved for k >= len.
func topK(sup []belief.Hypothesis, k int) []belief.Hypothesis {
	return appendTopK(nil, sup, k)
}

// appendTopK is topK into dst's storage (Decide passes its arena's). A
// support wider than k is sorted in a copy that dies with the call, so
// the arena never holds more than the k hypotheses a plan reads, however
// wide the widest support it has seen.
func appendTopK(dst, sup []belief.Hypothesis, k int) []belief.Hypothesis {
	if len(sup) > k {
		all := append([]belief.Hypothesis(nil), sup...)
		sort.Slice(all, func(i, j int) bool { return all[i].W > all[j].W })
		sup = all[:k]
	}
	out := append(dst, sup...)
	var total float64
	for _, h := range out {
		total += h.W
	}
	if total > 0 {
		for i := range out {
			out[i].W /= total
		}
	}
	return out
}
