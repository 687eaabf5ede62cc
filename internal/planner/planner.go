// Package planner implements the ISENDER's action selection (§3.2–3.3):
// at every wakeup it "makes a list of strategies including sending
// immediately and at every delay up to the slowest rate", evaluates the
// consequences of each strategy on each possible network configuration,
// and chooses the strategy maximizing the expected utility.
//
// A strategy is "inject the next packet at now+δ" for δ on a grid from 0
// to MaxDelay. For each hypothesis the planner clones the state and rolls
// it forward deterministically, gate frozen and loss in expectation,
// accumulating the utility of all own and cross deliveries over a common
// horizon. Neither approximation moves the argmax in the paper's
// configurations: utility is linear in delivered bits and last-mile loss
// reaches no queue, so the expectation over loss is exact for every
// candidate (utility.Config.OfPredicted); and the gate is re-inferred at
// every wake — a plan commits to nothing past the next wake, the gate
// toggles about once in a hundred seconds against a horizon of tens, and
// both gate states are in the support with their posterior weights, so a
// rollout only declines to fork on toggles inside its own horizon.
// Candidate utilities are measured relative to the no-send rollout of the
// same hypothesis, which keeps the differences well-conditioned: the
// large cross-traffic background term cancels exactly.
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
// A hypothesis that is rolled is rolled as a stream. All the sweep reads
// of a simulated segment is one number, its discounted utility, so the
// baseline and each candidate advance with model.State.RunAccum, which
// hands every delivery to the rollout's model.Accum as the link
// completes it: no event is recorded and none read back. The step
// factors exp(−Δ/κ) every accumulator multiplies its discount forward by
// come from one model.StepTable per worker, shared by the baseline and
// candidates of every sweep the worker runs. Three things keep the gains
// bit for bit what the event-buffer sweep computed: the segment partition
// (sums are still read, and cleared, at every sync stop, and a candidate's
// gain still grows by its segment less the baseline's); the event order
// (RunAccum is Run's loop); and one accumulator per rollout, so each
// discount chain steps through its own deliveries only — the shared table
// holds values of a pure function and cannot matter.
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
// for the rollout engine's five economies. (1) The no-send baseline is
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
// of candidate lanes, the call's own buffers live on the pool and the
// sweep is a method bound once, so on one worker the steady-state
// decision allocates nothing. (4) Each distinct hypothesis is swept
// once: before the sweep every hypothesis is keyed by exactly what the
// sweep reads of it (see the package comment), equal keys within the
// call share one sweep, and a key an earlier call on the same pool
// stored takes that call's per-candidate gain vector. A hit is bit for bit what the sweep
// would have produced, and the weight reduce below is unchanged, so the
// memo can be cold, warm, wrapped or shared by any set of senders
// without reaching a Decision. (5) A sweep is streamed: deliveries fold
// into one discount accumulator per rollout as the link completes them,
// no event buffer in between, with the exp(−Δ/κ) step factors shared by
// every rollout of a worker; segment partition, event order and
// summation order are the event-buffer sweep's, so the gains are too
// (see the package comment and decideArena.sweep).
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

	ar.pending, ar.now, ar.seq, ar.util, ar.candidates = pending, now, seq, cfg.Util, candidates
	pool.Run(len(roll), ar.sweepFn)
	// Shares and stores, again in index order on this goroutine.
	for i, j := range from {
		if j >= 0 {
			copy(row(i), row(int(j)))
		}
	}
	for _, i := range roll {
		ar.memo.store(keys[i], row(int(i)))
	}

	return reduce(hyps, gains, candidates, now, cfg.Grid)
}

// reduce weighs the per-hypothesis gain rows into the Decision.
func reduce(hyps []belief.Hypothesis, gains []float64, candidates int, now, grid time.Duration) Decision {
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
	d.WakeAt = now + time.Duration(bestDelta)*grid
	return d
}

const negInf = -1e308

// sweep rolls hypothesis roll[r] of the call in flight into its row of
// gains, on worker scratch s: the baseline and every candidate advance
// from stop to stop with their deliveries folded straight into one
// accumulator each (State.RunAccum), and at each stop the candidate's
// segment sum less the baseline's joins its gain. It is a method bound
// once (sweepFn) so a call creates no closure.
func (ar *decideArena) sweep(s *rollout.Scratch, r int) {
	i := int(ar.roll[r])
	h := &ar.hyps[i]
	stops, pending, candidates := ar.stops, ar.pending, ar.candidates
	gains := ar.gains[i*candidates : (i+1)*candidates]
	ds, _ := s.Aux.(*decideScratch)
	if ds == nil {
		ds = &decideScratch{}
		s.Aux = ds
	}
	if cap(ds.lanes) < candidates {
		ds.lanes = make([]lane, candidates)
	}
	lanes := ds.lanes[:candidates]

	base := &s.Base
	h.S.CloneInto(base)
	ar.util.Start(&ds.base, ar.now, h.S.P.LossProb, &ds.steps)

	// Each stop: the baseline first (at stop 0, = now, that consumes the
	// pending sends due by then, and what it delivers on the way belongs
	// to no candidate's gain), then every live candidate, then the fork
	// of the candidate that sends at this stop.
	si, forked, live := 0, 0, 0
	for j := 0; j < len(stops) && (forked < candidates || live > 0); j++ {
		t := stops[j]
		hi := si
		for hi < len(pending) && pending[hi].At <= t {
			hi++
		}
		base.RunAccum(t, pending[si:hi], &ds.base)
		si = hi
		baseSeg := ds.base.Take()

		for k := range lanes[:forked] {
			c := &lanes[k]
			if c.done {
				continue
			}
			hi := c.next
			for hi < len(c.sends) && c.sends[hi].At <= t {
				hi++
			}
			c.s.RunAccum(t, c.sends[c.next:hi], &c.acc)
			c.next = hi
			gains[k] += c.acc.Take() - baseSeg
			// Identical states with identical remaining sends have
			// identical futures: every later utility term cancels, so
			// this candidate's gain is final. (The send streams differ
			// only by the candidate's own packet, consumed by the first
			// stop after its fork.)
			if c.s.EqualDynamic(base) {
				c.done = true
				live--
			}
		}
		if j < candidates {
			// Fork candidate j from the baseline where it stands: its own
			// send, then any pending sends still in the future (all
			// pending are <= now in practice, so the tail is normally
			// empty); At-order holds by construction.
			c := &lanes[j]
			base.CloneInto(&c.s)
			ar.util.Start(&c.acc, ar.now, h.S.P.LossProb, &ds.steps)
			c.sends = append(c.sends[:0], model.Send{Seq: ar.seq, At: t})
			for _, snd := range pending {
				if snd.At > t {
					c.sends = append(c.sends, snd)
				}
			}
			c.next, c.done = 0, false
			gains[j] = 0
			forked++
			live++
		}
	}
}

// decideScratch is a worker's planner-specific arena, reused across
// decisions via rollout.Scratch.Aux: the baseline's accumulator, one lane
// per candidate, and the step table every accumulator of every sweep this
// worker runs reads its exp(−Δ/κ) factors from.
type decideScratch struct {
	base  model.Accum
	steps model.StepTable
	lanes []lane
}

// lane is one candidate's rollout: its live state, its accumulator and
// its send view.
type lane struct {
	s     model.State
	acc   model.Accum
	sends []model.Send
	next  int // first send not yet handed to the state
	done  bool
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
