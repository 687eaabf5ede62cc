// Package planner implements the ISENDER's action selection (§3.2–3.3):
// at every wakeup it "makes a list of strategies including sending
// immediately and at every delay up to the slowest rate", evaluates the
// consequences of each strategy on each possible network configuration,
// and chooses the strategy maximizing the expected utility.
//
// A strategy is "inject the next packet at now+δ" for δ on a grid from 0
// to MaxDelay. For each hypothesis the planner rolls the state forward
// deterministically, gate frozen and loss in expectation, accumulating the
// utility of all own and cross deliveries over a common horizon, relative
// to the no-send rollout of the same hypothesis. Neither approximation
// moves the argmax in the paper's configurations: the gate is re-inferred
// at every wake, toggles about once in a hundred seconds, and both its
// states are in the support with their posterior weights; last-mile loss
// reaches no queue and utility is linear in delivered bits
// (utility.Config.OfPredicted), so without a cross-latency penalty a
// hypothesis is rolled at survival 1 and reduce weighs it by W·(1−p).
//
// The rollout memo keys each hypothesis by what a rollout reads of it
// (model.State.AppendRolloutKey) under the pending sends and the plan
// constants, so fleet members in the same relative state, and hypotheses
// of one belief that differ only in what is left out (Figure 3's loss grid
// points), roll once (rolloutMemo). A rollout is a stream: every delivery
// goes to the rollout's model.Accum as the link completes it
// (model.State.RunAccum), bit for bit what an event buffer read back gave.
//
// A candidate is not rolled lane by lane where its consequences are a lag
// (model.State.BacklogDone): its packet joins the backlog and everything
// behind it leaves one service time later, until the link's idle time
// absorbs that lag. A wake is a burst of Decide calls at one instant on one
// belief, each with one more own packet committed at now, so the baseline
// of the call m packets in is the first call's carrying m service times of
// extra work — the lagged twin again. The first call's baseline writes one
// log (twinLog), and one closure (twinLog.close, with model.Lag) closes
// every candidate of every decision of the burst from it: the first call's
// when the sweep ends, a later one's when it asks (twinLog.derive) — or at
// once, into the memo under the later call's own key, when the first call
// sends on a link that never idles. A closed gain is the simulated one up
// to a summation order, five orders of magnitude under the tie band of
// reduce. What the log cannot establish is never guessed: a lane deferred
// before an arrival that left its twin no room is simulated after all, and
// a depth whose premise failed is swept. Every other lane of a hypothesis
// the gate passes closes, a packet not through by the horizon at 0; a
// baseline idle after the last fork with nothing left to arrive (quiet)
// stops there, its log holding to the horizon. A hypothesis twinGate
// refuses (a chunk smaller than a packet arriving by the horizon) and a
// call with a cross-latency penalty are swept as before, bit for bit.
//
// What only the wake decides — the top-K copy, the rollout-key hashes, the
// fingerprint's support half — is taken at a Wake's first decision.
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
	"modelcc/internal/units"
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
		MaxHyps:  defaultMaxHyps,
	}
}

// defaultMaxHyps is DefaultConfig's MaxHyps.
const defaultMaxHyps = 256

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
// packet with sequence number seq. pending are sends already committed but
// not yet folded into the belief; every rollout replays them, so the
// decisions of one wakeup see each other's queue occupancy.
//
// Each hypothesis is keyed by what a sweep reads of it (see the package
// comment), and its gain vector — one gain per candidate send time — comes
// from the first of: the rollout memo, where an earlier call on the pool
// stored the key; an earlier hypothesis of this call with the same key;
// the twin log of a burst's first decision; a sweep. A memo hit is bit for
// bit what the sweep would produce, so the memo never reaches a Decision.
//
// A sweep (decideArena.sweep) advances the no-send baseline once over sync
// stops and forks each candidate from it at its send time, to be closed
// from the twin log or simulated beside the baseline. Hypotheses are spread
// over cfg.Workers; on one worker a steady-state call allocates nothing.
//
// A call whose pending list ends in m sends of the uniform size stamped
// now (1 ≤ m ≤ twinDepth) is the (m+1)-th decision of a wake, and a vector
// it must produce that the memo does not hold is the one the log of the
// burst's first decision — the hypothesis keyed without those m sends —
// closes at depth m (twinLog.derive). The first decision keeps its log per
// hypothesis index; one that is gone is remade by sweeping the first
// decision again (MemoStats.Stripped). A first decision that sends closes
// every depth of a log whose link never idled at once and stores each
// vector under its later decision's key. A depth the log could not
// establish, a hypothesis twinGate refuses, a deeper burst and a trailing
// send of another size or instant go down the direct sweep. Resident,
// evicted or never made, the same key gets the same vector.
//
// reduce weighs the vectors by the hypotheses' weights (W·(1−p) without a
// penalty) in index order and picks the best candidate, ties within a band
// going to the longest delay.
func Decide(sup []belief.Hypothesis, pending []model.Send, now time.Duration, seq int64, cfg Config) Decision {
	var w Wake
	w.Reset(sup, now)
	return w.Decide(pending, seq, cfg)
}

// Decide decides on the wake's support at the wake's instant: a sender
// calls it on its own wake, the package's Decide on a throwaway one. What
// only the wake decides is taken at its first decision on a pool.
func (w *Wake) Decide(pending []model.Send, seq int64, cfg Config) Decision {
	cfg = cfg.withDefaults()
	pool := cfg.Pool
	if pool == nil {
		pool = acquirePool(cfg.Workers)
		defer releasePool(pool)
	}
	now := w.now
	ar := arenaOf(pool)
	ar.begin(w, cfg.MaxHyps, cfg.Util.CrossLatencyPenalty > 0)
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

	// The call-level half of twinGate: a delivery is valued by its instant
	// alone, and no committed send is still to come. Under it, a call whose
	// pending list ends in burst sends of the uniform size stamped now is a
	// later decision of a burst; the list without them is the first one's.
	twins := !ar.penalty && (len(pending) == 0 || pending[len(pending)-1].At <= now)
	// What such calls keep per hypothesis is sized at once for the widest
	// support a default plan reads: a support widens all through a run, and
	// buffers that follow it are reallocated while the run is being timed.
	width := max(n, min(cfg.MaxHyps, defaultMaxHyps))
	burst := 0
	if twins {
		for burst < len(pending) {
			if snd := pending[len(pending)-1-burst]; snd.At != now || snd.Bits != 0 {
				break
			}
			burst++
		}
		if len(ar.logs) < width {
			ar.logs = make([]twinLog, width)
		}
		ar.spare = slices.Grow(ar.spare[:0], candidates)[:candidates]
	}
	first := pending[:len(pending)-burst]
	derives := 1 <= burst && burst <= twinDepth
	keeps := twins && burst == 0

	// Memo look-ups, in index order on this goroutine (see Decide). Of the
	// hypotheses left to sweep, bare are swept under the burst's first plan
	// for a log that is gone, roll under the call's own.
	plan := planKey(pending, now, cfg)
	var firstPlan memoKey
	if derives {
		firstPlan = planKey(first, now, cfg)
	}
	ar.keys = slices.Grow(ar.keys[:0], n)[:n]
	ar.from = slices.Grow(ar.from[:0], n)[:n]
	ar.firsts.reset(n, width)
	keys, from, fresh, roll, bare := ar.keys, ar.from, ar.fresh[:0], ar.roll[:0], ar.bare[:0]
	for i, hyp := range ar.hkeys {
		keys[i] = hyp.under(plan)
		from[i] = -1
		if ar.memo.lookup(keys[i], row(i)) {
			continue
		}
		if from[i] = ar.firsts.claim(keys, i); from[i] >= 0 {
			ar.memo.Shared++
			continue
		}
		fresh = append(fresh, int32(i))
		if keeps {
			// The sweep writes the log and its reach, if twinGate lets it.
			ar.logs[i].key, ar.logs[i].reach = keys[i], 0
		}
		if derives {
			// The first decision's log closes this depth if it is at hand;
			// if it is gone, the first decision is swept again to remake it.
			if lg, bkey := &ar.logs[i], hyp.under(firstPlan); lg.key == bkey {
				if lg.derive(burst, row(i), ar.spare) {
					ar.memo.Derived++
					continue
				}
			} else if twinGate(&hyps[i].S, horizonEnd) {
				lg.key = bkey
				bare = append(bare, int32(i))
				continue
			}
		}
		roll = append(roll, int32(i))
	}

	ar.now, ar.seq, ar.util, ar.candidates, ar.twins = now, seq, cfg.Util, candidates, twins
	if len(bare) > 0 {
		// The burst's first decision, swept on behalf of this one: its
		// vector goes into the memo under its key, this decision's vector is
		// derived from its log if that reaches this deep, and if not the
		// hypothesis is swept under the call's own plan with the rest.
		ar.bgains = slices.Grow(ar.bgains[:0], width*candidates)[:n*candidates]
		ar.keeps = true
		ar.run(pool, bare, first, ar.bgains)
		for _, i := range bare {
			lg := &ar.logs[i]
			ar.memo.store(lg.key, ar.bgains[int(i)*candidates:(int(i)+1)*candidates])
			ar.memo.Stripped++
			if lg.derive(burst, row(int(i)), ar.spare) {
				ar.memo.Derived++
			} else {
				roll = append(roll, i)
			}
		}
	}
	ar.keeps = keeps
	ar.run(pool, roll, pending, gains)
	ar.fresh, ar.roll, ar.bare = fresh, roll, bare

	// Shares and stores, again in index order on this goroutine. A first
	// decision that sends closes every later depth of a log whose link never
	// idled at once, the closure's cheapest case, and stores each vector
	// under the later decision's own key: those decisions are memo hits.
	// This eager store moves no result (without it both Figure 3 md5s, the
	// fleet-256 digest and fleetsim's summary held, and fleet CPU and
	// Figure 3 wall time barely moved), but it sets fleet-256's
	// decide_p50_us: deleted, that read 5.9 µs against 1.9, memo hits at
	// N = 256 fell from 588,208 to 305,966 and derived vectors rose from
	// 61,083 to 343,544, each later decision paying a derive of its own.
	for i, j := range from {
		if j >= 0 {
			copy(row(i), row(int(j)))
		}
	}
	d := reduce(hyps, gains, candidates, now, cfg.Grid, ar.penalty)
	for _, i := range fresh {
		ar.memo.store(keys[i], row(int(i)))
	}
	if !keeps || !d.SendNow {
		return d
	}
	var later [twinDepth]memoKey // the plans of the decisions m packets in
	sends := append(ar.later[:0], pending...)
	for m := range later {
		sends = append(sends, model.Send{At: now})
		later[m] = planKey(sends, now, cfg)
	}
	ar.later = sends
	for _, i := range fresh {
		if lg := &ar.logs[i]; lg.busy() {
			for m := 1; lg.derive(m, ar.spare, ar.spare); m++ {
				ar.memo.store(ar.hkeys[i].under(later[m-1]), ar.spare)
			}
		}
	}
	return d
}

// run sweeps the hypotheses listed in roll on the pool, with pending
// committed, each into its row of out, and collects the workers' lane
// counts, summed in worker order on this goroutine.
func (ar *decideArena) run(pool *rollout.Pool, roll []int32, pending []model.Send, out []float64) {
	ar.roll, ar.pending, ar.out = roll, pending, out
	pool.Run(len(roll), ar.sweepFn)
	for w := 0; w < pool.Workers(); w++ {
		if ds, ok := pool.Scratch(w).Aux.(*decideScratch); ok {
			ar.memo.MemoStats.Add(ds.tally)
			ds.tally = MemoStats{}
		}
	}
}

// reduce weighs the gain rows into the Decision, by W·(1−p) if penalty-free.
func reduce(hyps []belief.Hypothesis, gains []float64, candidates int, now, grid time.Duration, penalty bool) Decision {
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
			w := hyps[i].W
			if !penalty {
				w *= 1 - hyps[i].S.P.LossProb
			}
			gain += w * gains[i*candidates+k]
		}
		if gain > maxGain {
			maxGain = gain
		}
		if gain >= maxGain-tieEps {
			bestDelta = k
			chosenGain = gain
		}
	}

	return Decision{
		SendNow:    bestDelta == 0,
		WakeAt:     now + time.Duration(bestDelta)*grid,
		Gain:       chosenGain,
		Candidates: candidates,
		Support:    len(hyps),
	}
}

const negInf = -1e308

// sweep rolls hypothesis roll[r] of the call in flight into its row of
// gains, on worker scratch s: the baseline and every candidate advance
// from stop to stop (State.RunAccum), and at each stop the candidate's
// segment sum less the baseline's joins its gain. On a hypothesis twinGate
// takes the baseline writes the twin log (twinSweep), from which each
// candidate is closed instead, unless an arrival revives it. It is a
// method bound once (sweepFn) so a call creates no closure.
func (ar *decideArena) sweep(s *rollout.Scratch, r int) {
	i := int(ar.roll[r])
	h := &ar.hyps[i]
	stops, pending, candidates := ar.stops, ar.pending, ar.candidates
	gains := ar.out[i*candidates : (i+1)*candidates]
	ds, _ := s.Aux.(*decideScratch)
	if ds == nil {
		ds = &decideScratch{}
		s.Aux = ds
	}
	if cap(ds.lanes) < candidates {
		ds.lanes = make([]lane, candidates)
	}
	lanes := ds.lanes[:candidates]
	ds.tally.Lanes += int64(candidates)

	base := &s.Base
	h.S.CloneInto(base)
	horizon := stops[len(stops)-1]
	twin := ar.twins && twinGate(&h.S, horizon)
	loss := 0.0 // survival-free: reduce weighs (1−p) in
	if ar.penalty {
		loss = h.S.P.LossProb
	}
	ar.util.Start(&ds.base, ar.now, loss, &ds.steps)
	acc := &ds.base

	// The lagged-twin mode (ds.tw): a deferred lane is also done, so the
	// lockstep passes over it.
	tw := &ds.tw
	tw.deferred, tw.owing = 0, false
	if twin {
		lg := &ds.log // a later decision's own: the first one's stays as it is
		if ar.keeps {
			lg = &ar.logs[i]
		}
		tw.start(base, acc, stops, lg, candidates, ar.now, float64(ar.util.Kappa))
		tw.keeps = ar.keeps
	}

	// Each stop: the baseline first (at stop 0, = now, that consumes the
	// pending sends due by then, and what it delivers on the way belongs
	// to no candidate's gain), then every live candidate, then the fork
	// of the candidate that sends at this stop.
	si, forked, live := 0, 0, 0
	for j := 0; j < len(stops) && (forked < candidates || live > 0 || tw.owing); j++ {
		t := stops[j]
		hi := si
		for hi < len(pending) && pending[hi].At <= t {
			hi++
		}
		if twin && j >= candidates && live == 0 && base.Serving && si == len(pending) && quiet(base, horizon) {
			// Nothing arrives before H: the link runs dry at BacklogDone,
			// where the watch logs the gap, and the log holds to H from
			// there, without a stop on the way.
			t = min(base.BacklogDone(), horizon)
			tw.pause(base, acc, lanes[:forked], t)
			base.RunAccum(t, nil, acc)
			tw.endStop(acc, j, acc.Take())
			tw.book(t)
			tw.owing, tw.lg.logEnd = false, horizon
			break
		}
		if twin && j > 0 {
			tw.pause(base, acc, lanes[:forked], t)
		}
		base.RunAccum(t, pending[si:hi], acc)
		si = hi
		baseSeg := acc.Take()
		if twin {
			if tw.endStop(acc, j, baseSeg) {
				n := ar.revive(h, ds, lanes[:forked], gains, j)
				ds.tally.Materialized += int64(n)
				live += n
			}
			tw.book(t)
			if j >= candidates && !base.Serving && si == len(pending) && quiet(base, horizon) {
				// Idle with nothing left to come: the log holds to H as it is.
				tw.owing, tw.lg.logEnd = false, horizon
			}
		}

		// The lockstep; on a twin sweep it carries revived lanes only.
		for k := 0; k < forked && live > 0; k++ {
			c := &lanes[k]
			if c.done {
				continue
			}
			gains[k] += c.run(t) - baseSeg
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
			c.done, c.deferred = false, false
			gains[j] = 0
			forked++
			if twin {
				// Tail-dropped on arrival (the candidate is its baseline from
				// here on) or deferred: no state.
				tw.fork(c, base, acc, j)
				continue
			}
			c.fork(base, t, pending, ar.seq)
			ar.util.Start(&c.acc, ar.now, loss, &ds.steps)
			live++
		}
	}
	if twin {
		tw.close(lanes[:forked], gains)
		ds.tally.Closed += int64(tw.closed)
	}
}

// revive simulates after all, and counts, every lane deferred at stop j
// (where an arrival left a twin no room) whose lag the log had not
// absorbed by the stop before and whose packet starts before H; the rest
// close, a packet starting at or after H at 0: it is not through by H,
// and the twin differs from the baseline in no packet of its own before
// that. It replays the hypothesis to its fork stop (a paused advance
// moves nothing) and catches up through the stops it sat out, at none of
// which it could equal the baseline.
func (ar *decideArena) revive(h *belief.Hypothesis, ds *decideScratch, lanes []lane, gains []float64, j int) (revived int) {
	tw := &ds.tw
	lg := tw.lg.view(tw.logged, tw.prev)
	for k := tw.first; k < len(lanes); k++ {
		c := &lanes[k]
		if !c.deferred {
			continue
		}
		c.deferred = false
		if lg.close(0, k, k+1, gains[k:k+1]) {
			tw.closed++
			continue
		}
		gains[k] = 0
		if tw.lg.cands[k].u >= tw.lg.horizon {
			tw.closed++
			continue
		}
		c.done = false
		h.S.CloneInto(&c.s)
		c.s.RunAccum(ar.stops[k], ar.pending, nil)
		c.fork(&c.s, ar.stops[k], ar.pending, ar.seq)
		ar.util.Start(&c.acc, ar.now, 0, &ds.steps) // a twin sweep has no penalty
		for m := k + 1; m < j; m++ {
			gains[k] += c.run(ar.stops[m]) - tw.segs[m]
		}
		revived++
	}
	tw.deferred, tw.owing, tw.busy = 0, false, false
	return revived
}

// twinSweep is the lagged-twin mode's state within one sweep: the log in
// the making (lg), A at the last stop (taken) and each stop's segment. The
// deferred lanes are those from first on whose flag is set, read the first
// whose A(u) is still to come, and owing says the newest one's lag, owed
// (deepened when the log is kept for a burst's later decisions), is. u is
// BacklogDone at the last fork, carried while busy, and pkt the packet
// value at u+ℓ for pktU. reach is how deep the log serves; prev is the
// last stop booked, when the log held logged gaps.
type twinSweep struct {
	lg                            *twinLog
	segs                          []float64
	taken                         float64
	owing, keeps, busy            bool
	deferred, closed, first, read int
	owed                          model.Lag
	reach, booked, valued, logged int
	prev, pktU, u                 time.Duration
	pkt                           float64
}

// start arms the mode for one hypothesis: the baseline's accumulator
// watches the premises as deep as a log serves and logs the gaps.
func (tw *twinSweep) start(base *model.State, acc *model.Accum, stops []time.Duration, lg *twinLog, candidates int, now time.Duration, kappa float64) {
	p, horizon := base.P, stops[len(stops)-1]
	lg.now, lg.u0, lg.horizon, lg.logEnd, lg.lag, lg.x, lg.capBits = now, 0, horizon, now, p.ServiceTime(), p.PktBits(), p.BufferCapBits
	lg.kappa, lg.aEnd, lg.winFrom, lg.aWin, lg.win = kappa, 0, units.Forever, 0, lg.win[:0]
	for l := range lg.clean {
		lg.clean[l] = units.Forever
	}
	lg.all, lg.cands = lg.all[:0], slices.Grow(lg.cands[:0], candidates)[:candidates]
	*tw = twinSweep{lg: lg, segs: slices.Grow(tw.segs[:0], len(stops))[:len(stops)],
		reach: twinDepth, prev: now, pktU: -1}
	if !base.Serving {
		lg.all = append(lg.all, model.Gap{Dry: base.Now, End: units.Forever})
	}
	acc.Watch(lg.x, lg.lag, twinDepth+1, &lg.all)
}

// fork logs the candidate forking from base at stop j — u, and what its
// admission behind a later decision's baseline depends on — and takes its
// lane off the lockstep: dropped where it forks, or deferred. A packet not
// through by H is worth 0.
func (tw *twinSweep) fork(c *lane, base *model.State, acc *model.Accum, j int) {
	lg := tw.lg
	cd := &lg.cands[j]
	*cd = twinCand{u: base.Now, at: base.Now, room: lg.capBits - base.QueueBits - lg.x}
	if !base.Serving {
		tw.busy = false
	} else {
		// BacklogDone, carried from the last busy fork (Accum.TakeQueued).
		if queued := acc.TakeQueued(); tw.busy {
			tw.u += queued
		} else {
			tw.u, tw.busy = base.BacklogDone(), true
		}
		cd.u, cd.in, cd.served = tw.u, base.InService.Bits, base.Now-base.ServiceBegan()
	}
	if j == 0 {
		// The burst's earlier packets join at this instant: as many must fit.
		lg.u0 = cd.u
		n := cd.room + lg.x // the queue's room, less the packet in service
		if !base.Serving {
			n += lg.x
		}
		tw.reach = min(tw.reach, int(n/lg.x))
	}
	// The first gap a lag from u is carried through: the one under way on
	// an idle link, the next to be logged else.
	if cd.gi = len(lg.all); !base.Serving {
		cd.gi--
	}
	c.done = true
	if base.Serving && cd.room < 0 {
		tw.closed++ // never simulated
		return
	}
	if cd.u+lg.lag <= lg.horizon {
		if cd.u != tw.pktU {
			tw.pktU, tw.pkt = cd.u, model.PacketValue(lg.x, cd.u+lg.lag-lg.now, lg.kappa)
		}
		cd.pkt = tw.pkt
	}
	if tw.deferred == 0 {
		tw.first = j
	}
	// A log kept for the burst's later decisions runs on until the deepest
	// lag it may close is gone too.
	e := lg.lag
	if tw.keeps {
		e *= time.Duration(tw.reach + 1)
	}
	c.deferred, tw.owed, tw.owing = true, model.Lag{E: e, From: cd.u}, true
	tw.deferred++
}

// pause stops the baseline, on its way to t, at every instant the closure
// reads A at — each deferred lane's u (H for a u past it), the start of
// H's last (twinDepth+1)·ℓ and every delivery in them (and an arrival there
// on an idle link) — without Take, so the segment partition stays as it is.
func (tw *twinSweep) pause(base *model.State, acc *model.Accum, lanes []lane, t time.Duration) {
	lg := tw.lg
	for {
		for tw.read < len(lanes) && !lanes[tw.read].deferred {
			tw.read++
		}
		at, win := t+1, false
		if tw.read < len(lanes) {
			at = min(lg.cands[tw.read].u, lg.horizon)
		}
		w := units.Forever
		switch {
		case lg.winFrom == units.Forever:
			w = max(lg.horizon-time.Duration(twinDepth+1)*lg.lag, base.Now)
		case base.Serving:
			w = base.ServiceDone
		case base.NextCross <= lg.horizon:
			w = base.NextCross
		}
		if w <= lg.horizon && w <= at {
			at, win = w, true
		}
		if at > t {
			return
		}
		delivers := base.Serving && lg.winFrom != units.Forever
		base.RunAccum(at, nil, acc)
		a := tw.taken + acc.Pending()
		switch {
		case !win:
			lg.cands[tw.read].a = a
			tw.read++
		case lg.winFrom == units.Forever:
			lg.winFrom, lg.aWin = at, a
		case delivers:
			lg.win = append(lg.win, delivery{at, a})
		}
	}
}

// endStop books the baseline's segment for stop j and its watch's level:
// each level it fell short of held no further than the stop before
// (clean). It reports whether lanes were deferred through a stop at level
// 0 (revive).
func (tw *twinSweep) endStop(acc *model.Accum, j int, seg float64) (dirty bool) {
	lg := tw.lg
	tw.segs[j] = seg
	for gaps := lg.all; tw.valued < len(gaps); tw.valued++ {
		gaps[tw.valued].Value += tw.taken // the segment's value at Dry: A there
	}
	tw.taken += seg
	level := acc.TakeWatch()
	if j == 0 {
		return false // nothing forks before now
	}
	for l := level + 1; l < len(lg.clean); l++ {
		lg.clean[l] = min(lg.clean[l], tw.prev)
	}
	return level == 0 && tw.deferred > 0
}

// book carries owed, the newest deferred lane's lag — which an older lane's,
// with no shorter idle time, cannot outlast — across the gaps up to stop
// t, ended or under way.
func (tw *twinSweep) book(t time.Duration) {
	gaps := tw.lg.all
	if tw.booked < len(gaps) {
		tw.busy = false // BacklogDone is summed afresh after a gap
	}
	for ; tw.booked < len(gaps); tw.booked++ {
		g, l := gaps[tw.booked], &tw.owed
		if g.End == units.Forever {
			tw.owing = tw.owing && max(g.Dry, l.From)+l.E > t
			break
		}
		if tw.owing && (g.End > l.From || g.Dry >= l.From) && l.Idle(g.Dry, g.End, 0) {
			tw.owing = false
		}
	}
	tw.prev, tw.logged = t, len(gaps)
}

// close closes the lanes still deferred when the sweep ends from the whole
// log, which reaches H if the baseline stopped idle with nothing to come,
// and sets how deep the log may serve the burst's later decisions, none of
// them closed yet (twinLog.derive).
func (tw *twinSweep) close(lanes []lane, gains []float64) {
	lg := tw.lg
	lg.logEnd, lg.aEnd = max(lg.logEnd, tw.prev), tw.taken
	all := lg.view(len(lg.all), lg.logEnd)
	for k := tw.first; k < len(lanes); k++ {
		if c := &lanes[k]; c.deferred {
			if !all.close(0, k, k+1, gains[k:k+1]) {
				panic("planner: a deferred lane's log does not close it")
			}
			tw.closed++
		}
	}
	lg.reach, lg.closed = 1+tw.reach, 0
}

// derive closes the gain vector of the burst's decision m ≥ 1 packets in
// from the log into gains, and reports whether the log establishes it.
// The depths before m not closed yet are closed first, into scratch (which
// may be gains), and the first that fails lowers the reach: whether a depth
// derives is the log's alone, whichever depths were asked for before.
func (lg *twinLog) derive(m int, gains, scratch []float64) bool {
	all, c := lg.view(len(lg.all), lg.logEnd), len(lg.cands)
	for d := min(lg.closed+1, m); d <= m; d++ {
		if d >= lg.reach {
			return false
		}
		out := scratch
		if d == m {
			out = gains
		}
		if !all.close(d, 0, c, out) {
			lg.reach = d
			return false
		}
		lg.closed = max(lg.closed, d)
	}
	return true
}

// busy reports whether the log's link never idled before H.
func (lg *twinLog) busy() bool {
	return len(lg.all) == 0 && lg.logEnd == lg.horizon
}

// view points the closure at the log's first n gaps, to end.
func (lg *twinLog) view(n int, end time.Duration) *twinLog {
	lg.gaps, lg.end = lg.all[:n], end
	return lg
}

// close is the one closure of the lagged twin: it writes the gains of
// candidates k0 … k1−1 in the burst's decision m packets in (0: the log's
// own) to out, and reports whether the log establishes them all. That
// decision's baseline is the log's carrying m·ℓ of extra work from u0,
// E(u) of it owed at the candidate's u; the candidate's packet, if
// admitted (Lag.Surplus), leaves at u+E(u)+ℓ and the candidate carries
// E(u)+ℓ from u on (model.State.BacklogDone). Both are carried from u
// (carry), and the gain is the difference; at m ≥ 1 every stop must
// have kept level m while the baseline owed work and m+1 while the
// candidate did.
func (lg *twinLog) close(m, k0, k1 int, out []float64) bool {
	own, owedOwn, ogi := model.Lag{}, time.Duration(0), -1
	for k := k0; k < k1; k++ {
		cd := &lg.cands[k]
		from, gi := cd.u, min(cd.gi, len(lg.gaps))
		if gi != ogi {
			// The decision's own baseline, carried through the gaps before u:
			// it owes work until owedOwn.
			own, owedOwn, ogi = model.Lag{E: time.Duration(m) * lg.lag, From: lg.u0}, lg.u0, gi
			for _, g := range lg.gaps[min(lg.cands[0].gi, gi):gi] {
				if owedOwn = max(g.Dry, own.From) + own.E; own.Idle(g.Dry, g.End, 0) {
					break
				}
				if g.Bits+own.Holds(lg.x, lg.lag) > lg.capBits {
					return false
				}
			}
		}
		base, owed := own, owedOwn
		if gi < len(lg.gaps) && base.E > 0 && lg.gaps[gi].Dry < from {
			owed = max(lg.gaps[gi].Dry, base.From) + base.E // forked on an idle link
			base.Idle(lg.gaps[gi].Dry, from, 0)
		}
		c := model.Lag{E: base.E + lg.lag, From: from, A: cd.a}
		var b float64
		if base.E > 0 {
			var ok bool
			if b, owed, ok = lg.carry(model.Lag{E: base.E, From: from, A: cd.a}, gi); !ok || owed > lg.clean[m] {
				return false
			}
		} else if m > 0 && owed > lg.clean[m] {
			return false
		}
		out[k-k0] = 0
		if cd.in > 0 || base.E > 0 {
			// The packet queues behind the baseline's backlog and the twin's.
			lo, hi := base.Surplus(cd.at, cd.served, cd.in, lg.x, lg.lag)
			if lo > cd.room {
				continue // dropped where it forks: the candidate is its baseline
			} else if hi > cd.room {
				return false
			}
		}
		if m == 0 {
			c.Gain = cd.pkt
			gain, _, ok := lg.carry(c, gi)
			if out[k-k0] = gain; !ok {
				return false
			}
			continue
		}
		v := cd.pkt
		if from+c.E > lg.horizon {
			v = 0
		} else if base.E > 0 {
			v *= 1 - lg.slip(base.E) // E(u) later than at depth 0
		}
		gain, gone, ok := lg.carry(c, gi)
		if !ok || gone > lg.clean[m+1] {
			return false
		}
		out[k-k0] = v + gain - b
	}
	return true
}

// carry carries l through the log from gap gi on — each busy stretch
// (Lag.Stretch), each gap (Lag.Idle) until one absorbs it, what is still
// owed at H — and returns its gain and when it was gone (H if never), or
// false where the log cannot say: a gap-ending arrival that does not fit
// beside Lag.Holds, a log that ends or runs out of gaps while l is owed, a
// cut the log knows no A at.
func (lg *twinLog) carry(l model.Lag, gi int) (gain float64, gone time.Duration, ok bool) {
	for _, g := range lg.gaps[gi:] {
		if g.Dry > l.From && !lg.stretch(&l, g.Dry, g.Value) {
			return 0, 0, false
		}
		start := max(g.Dry, l.From)
		if g.End > lg.end {
			// Under way where the log ends: absorbed by then, or idle at H.
			return l.Gain, min(start+l.E, lg.horizon), start+l.E <= lg.end || lg.end == lg.horizon
		}
		if gone = start + l.E; l.Idle(g.Dry, g.End, g.Value) {
			return l.Gain, gone, true
		}
		if g.Bits+l.Holds(lg.x, lg.lag) > lg.capBits {
			return 0, 0, false
		}
	}
	if lg.end < lg.horizon || !lg.stretch(&l, lg.horizon, lg.aEnd) {
		return 0, 0, false
	}
	return l.Gain, lg.horizon, true
}

// stretch books l's busy stretch to end, where A was aEnd. A cut inside it
// lies in H's last (twinDepth+1)·ℓ, where the log has every delivery.
func (lg *twinLog) stretch(l *model.Lag, end time.Duration, aEnd float64) bool {
	aCut := aEnd
	if cut := l.Cut(end, lg.horizon); cut == l.From {
		aCut = l.A
	} else if cut < end {
		var ok bool
		if aCut, ok = lg.a(cut); !ok {
			return false
		}
	}
	l.Stretch(aCut, aEnd, lg.slip(l.E))
	return true
}

// slip is 1 − e^(−E/κ) (model.Lag.Slip), memoized: the candidates carried
// through the same gaps meet the same lags.
func (lg *twinLog) slip(e time.Duration) float64 {
	d := &lg.slips[uint64(e)*0x9e3779b97f4a7c15>>60]
	if d.e != e || d.kappa != lg.kappa {
		l := model.Lag{E: e}
		d.e, d.kappa, d.slip = e, lg.kappa, l.Slip(lg.kappa)
	}
	return d.slip
}

// a is A(t) for t in H's last (twinDepth+1)·ℓ, or false where the log
// does not know it.
func (lg *twinLog) a(t time.Duration) (float64, bool) {
	for i := len(lg.win) - 1; i >= 0; i-- {
		if lg.win[i].at <= t {
			return lg.win[i].a, true
		}
	}
	return lg.aWin, t >= lg.winFrom
}

// twinGate reports whether hypothesis s, planned to horizon by a call
// with no latency penalty and no committed send still to come, may close
// candidates as lagged twins of its baseline: no chunk arriving by the
// horizon is smaller than a candidate's packet — vacuously so on a quiet
// hypothesis. Every input is a size or a time relative to the decision
// instant, all of them in the rollout key.
func twinGate(s *model.State, horizon time.Duration) bool {
	return quiet(s, horizon) || s.P.CrossBits() >= s.P.PktBits()
}

// quiet reports whether no pinger chunk arrives at s by the horizon: its
// gate is off or its next tick is past it.
func quiet(s *model.State, horizon time.Duration) bool {
	return !s.PingerOn || s.NextCross > horizon
}

// decideScratch is a worker's planner-specific arena, reused across
// decisions via rollout.Scratch.Aux: the baseline's accumulator, one lane
// per candidate, the step table every accumulator of every sweep this
// worker runs reads its exp(−Δ/κ) factors from, the lagged-twin mode's
// state for the sweep in hand, the log of a burst's later decision's own
// sweep, and the worker's lane counts since Decide last collected them.
type decideScratch struct {
	base  model.Accum
	steps model.StepTable
	lanes []lane
	tw    twinSweep
	log   twinLog
	tally MemoStats // the lane counts only
}

// lane is one candidate's rollout: its live state, its accumulator and
// its send view. A deferred lane holds nothing: its closure is in the log.
type lane struct {
	s        model.State
	acc      model.Accum
	sends    []model.Send
	next     int // first send not yet handed to the state
	done     bool
	deferred bool
}

// fork makes the lane a candidate sending at t from the state from (its
// own, or cloned into it): its packet, then the pending sends still to
// come.
func (c *lane) fork(from *model.State, t time.Duration, pending []model.Send, seq int64) {
	if from != &c.s {
		from.CloneInto(&c.s)
	}
	c.sends = append(c.sends[:0], model.Send{Seq: seq, At: t})
	for _, snd := range pending {
		if snd.At > t {
			c.sends = append(c.sends, snd)
		}
	}
	c.next = 0
}

// run advances the lane to t and returns the value of what it delivered
// on the way, its segment.
func (c *lane) run(t time.Duration) float64 {
	hi := c.next
	for hi < len(c.sends) && c.sends[hi].At <= t {
		hi++
	}
	c.s.RunAccum(t, c.sends[c.next:hi], &c.acc)
	c.next = hi
	return c.acc.Take()
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
	return appendTopK(nil, &byWeight{}, sup, k)
}

// appendTopK is topK into dst's storage (Decide passes its arena's). A
// support wider than k is ordered through order's index, not moved, so
// the arena holds only the k hypotheses a plan reads and an int32 per
// hypothesis of the widest support it has seen.
func appendTopK(dst []belief.Hypothesis, order *byWeight, sup []belief.Hypothesis, k int) []belief.Hypothesis {
	out := dst
	if len(sup) > k {
		order.sup, order.idx = sup, order.idx[:0]
		for i := range sup {
			order.idx = append(order.idx, int32(i))
		}
		sort.Sort(order)
		for _, i := range order.idx[:k] {
			out = append(out, sup[i])
		}
		order.sup = nil
	} else {
		out = append(out, sup...)
	}
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

// byWeight orders indices into a support heaviest first. sort.Sort runs
// the pdqsort sort.Slice runs, and its swaps follow the Less outcomes
// alone, so the index comes out in the order a copy of the support sorted
// by the same comparison would: ties included.
type byWeight struct {
	idx []int32
	sup []belief.Hypothesis
}

func (b *byWeight) Len() int           { return len(b.idx) }
func (b *byWeight) Less(i, j int) bool { return b.sup[b.idx[i]].W > b.sup[b.idx[j]].W }
func (b *byWeight) Swap(i, j int)      { b.idx[i], b.idx[j] = b.idx[j], b.idx[i] }
