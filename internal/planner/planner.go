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
// A candidate is not rolled lane by lane where its consequences are a lag.
// On a fleet the modeled link never idles inside the horizon: a
// candidate's packet joins the backlog and everything behind it leaves one
// service time later, for ever, so the lane never reconverges with its
// baseline. Where the link does idle, as on the paper's Figure 3, the idle
// time absorbs that lag, and once it has the twin is the baseline. Either
// way the lane carries nothing the baseline does not (the theorem and its
// corollary are at model.State.BacklogDone): the sweep defers it at its
// fork — cloned, not advanced — and closes its gain from the baseline's
// running value (model.Lag) where a gap absorbs the lag, or at the
// horizon. The baseline's accumulator logs its gaps and watches the room
// every arrival leaves a twin (model.Accum.Watch); a stop with an arrival
// a twin had no room for turns every deferred lane back into a simulated
// one, caught up from its fork clone bit for bit. A closed gain is the
// simulated gain up to a summation order, five orders of magnitude under
// the tie band of reduce, so no decision can tell. On a quiet hypothesis,
// which nothing arrives at to the horizon, the baseline delivers nothing
// after the packet's u, so there is nothing to stretch: every lane closes
// at its fork with its packet's value and the baseline is advanced with no
// accumulator. twinGate decides per hypothesis, from sizes and relative
// times only; a hypothesis it refuses (a skewed clock, a chunk smaller than
// a packet arriving by the horizon) is swept as before, bit for bit.
//
// And a hypothesis whose link stays busy through the forks is rolled once
// per wake, not once per decision. A sender re-decides after every packet
// it injects (§3.2–3.3), so a wake is a burst of Decide calls at one
// instant on one belief, each with one more own packet committed at now
// (four per live wake on a 256-sender fleet). The baseline of the call m
// packets in is the first call's m service times late — the lagged twin
// again — and its candidates are that baseline m+1 late from their forks.
// So the first call's sweep leaves a twin record beside its gain vector in
// the memo (twinRecord), and the later calls derive their vectors from it
// in a few flops per candidate (twinRecord.derive), differing from rolled
// ones by a summation order, like closed ones.
//
// What only the wake decides is paid for once per wake: the top-K copy,
// each hypothesis's rollout-key hash and the fingerprint's support half
// are taken at a Wake's first decision and kept for the rest, keyed by
// the Wake alone (see Wake).
//
// Ties break toward the longest delay. This is what turns the utility
// maximization into pacing: when the queue already guarantees a packet's
// delivery time, sending it any earlier buys nothing, so the sender
// waits — and it is also why an α ≥ 1 sender never overflows the buffer
// (Figure 3's headline behaviour).
package planner

import (
	"math"
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
// the twin record of a burst's first decision; a sweep. A memo hit is bit
// for bit what the sweep would produce, so the memo never reaches a
// Decision.
//
// A sweep (decideArena.sweep) advances the no-send baseline once over sync
// stops — each candidate's send time, then every lockstepChunk to the
// horizon — folding its deliveries into a discount accumulator
// (model.Accum), and forks each candidate from it at its send time. On a
// hypothesis twinGate takes, a candidate is its baseline late by its
// packet's service time: its gain is closed from the baseline's running
// value (model.Lag) where an idle gap absorbs the lag, at the horizon, or,
// on a quiet hypothesis (nothing arrives to the horizon), at its fork. The
// rest are simulated beside the baseline and retire at the first stop
// where their state equals it: every lane twinGate refuses, a lane of a
// hypothesis that is not quiet whose packet is not through by the horizon,
// and every lane deferred before an arrival that left a twin no room.
// Closed gains differ from simulated ones by a summation order. Hypotheses
// are spread over cfg.Workers with per-worker scratch, and on one worker a
// steady-state call allocates nothing.
//
// A call whose pending list ends in m sends of the uniform size stamped
// now (1 ≤ m ≤ twinDepth) is the (m+1)-th decision of a wake, and a vector
// it must produce is derived (twinRecord.derive) from the record of the
// burst's first decision — the hypothesis keyed without those m sends —
// when the record reaches depth m. A record that is not resident is remade
// by sweeping the first decision (MemoStats.Stripped); a record that does
// not reach, a hypothesis twinGate refuses, a deeper burst and a trailing
// send of another size or instant go down the direct sweep. Resident,
// evicted or never made, the same key gets the same vector.
//
// reduce weighs the vectors by the hypotheses' weights in index order and
// picks the best candidate, ties within a band going to the longest delay.
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
	twins := cfg.Util.CrossLatencyPenalty == 0 && (len(pending) == 0 || pending[len(pending)-1].At <= now)
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
		ar.recs.size(width, candidates)
	}
	first := pending[:len(pending)-burst]
	derives := 1 <= burst && burst <= twinDepth

	// Memo look-ups, in index order on this goroutine (see Decide). Of the
	// hypotheses left to sweep, bare are swept under the burst's first plan
	// for a missing record, roll under the call's own.
	plan := planKey(pending, now, cfg)
	var firstPlan memoKey
	if derives {
		firstPlan = planKey(first, now, cfg)
		ar.bkeys = slices.Grow(ar.bkeys[:0], width)[:n]
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
		if twins {
			ar.recs.reach[i] = 0
		}
		if derives {
			ar.bkeys[i] = hyp.under(firstPlan)
			if rec, ok := ar.memo.record(ar.bkeys[i], candidates); ok {
				if rec.derive(burst, row(i)) {
					ar.memo.Derived++
					continue
				}
			} else if twinGate(&hyps[i].S, horizonEnd) {
				bare = append(bare, int32(i))
				continue
			}
		}
		roll = append(roll, int32(i))
	}

	ar.now, ar.seq, ar.util, ar.candidates, ar.twins = now, seq, cfg.Util, candidates, twins
	if len(bare) > 0 {
		// The burst's first decision, swept on behalf of this one: vector
		// and record go into the memo under its key, this decision's vector
		// is derived from the record if it reaches this deep, and if not the
		// hypothesis is swept under the call's own plan with the rest.
		ar.bgains = slices.Grow(ar.bgains[:0], width*candidates)[:n*candidates]
		ar.run(pool, bare, first, ar.bgains)
		for _, i := range bare {
			rec := ar.recs.at(int(i), candidates)
			ar.memo.store(ar.bkeys[i], ar.bgains[int(i)*candidates:(int(i)+1)*candidates])
			ar.memo.keep(ar.bkeys[i], rec)
			ar.memo.Stripped++
			if rec.derive(burst, row(int(i))) {
				ar.memo.Derived++
			} else {
				roll = append(roll, i)
			}
		}
	}
	ar.run(pool, roll, pending, gains)
	ar.fresh, ar.roll, ar.bare = fresh, roll, bare

	// Shares and stores, again in index order on this goroutine. Only a
	// burst's first decision leaves twin records.
	for i, j := range from {
		if j >= 0 {
			copy(row(i), row(int(j)))
		}
	}
	records := twins && burst == 0
	for _, i := range fresh {
		ar.memo.store(keys[i], row(int(i)))
		if records && ar.recs.reach[i] > 0 {
			ar.memo.keep(keys[i], ar.recs.at(int(i), candidates))
		}
	}

	return reduce(hyps, gains, candidates, now, cfg.Grid)
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
//
// When the hypothesis passes twinGate a candidate is not advanced at all
// but deferred at its fork and closed (twinSweep), or, on a quiet
// hypothesis, closed there: the baseline then folds its deliveries into no
// accumulator, as nothing of its value is read. Such a sweep also fills
// the hypothesis's twin record (ar.recs), which Decide keeps when the
// sweep is of a burst's first decision.
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
	ar.util.Start(&ds.base, ar.now, h.S.P.LossProb, &ds.steps)
	acc := &ds.base
	if twin && quiet(&h.S, horizon) {
		acc = nil // every lane closes at its fork: the baseline's value is never read
	}

	// The lagged-twin mode (ds.tw): under it a candidate is deferred at its
	// fork — marked done as well, so the lockstep passes over it — and the
	// baseline pauses on its way to read the value it has delivered by the
	// instants the closed form needs.
	tw := &ds.tw
	tw.deferred = 0
	if twin {
		tw.start(base, acc, stops, ar.recs.at(i, candidates), ar.now, float64(ar.util.Kappa), 1-h.S.P.LossProb)
	}

	// Each stop: the baseline first (at stop 0, = now, that consumes the
	// pending sends due by then, and what it delivers on the way belongs
	// to no candidate's gain), then every live candidate, then the fork
	// of the candidate that sends at this stop.
	si, forked, live := 0, 0, 0
	for j := 0; j < len(stops) && (forked < candidates || live > 0 || tw.deferred > 0); j++ {
		t := stops[j]
		hi := si
		for hi < len(pending) && pending[hi].At <= t {
			hi++
		}
		if tw.deferred > 0 {
			tw.pause(base, acc, lanes[:forked], t)
		}
		base.RunAccum(t, pending[si:hi], acc)
		si = hi
		baseSeg := ds.base.Take() // 0 on a quiet hypothesis
		if twin && acc != nil {
			n := tw.endStop(acc, lanes[:forked], gains, stops, j, baseSeg)
			ds.tally.Materialized += int64(n)
			live += n
		}

		// The lockstep, in line: as a call it cost the plain sweep 1.3 %
		// (lane.run is the same advance, for the catch-up).
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
			c.done, c.deferred = false, false
			gains[j] = 0
			forked++
			if twin && tw.fork(c, base, acc, gains, j) {
				// Tail-dropped on arrival (the candidate is its baseline from
				// here on), or closed where it forks.
				continue
			}
			base.CloneInto(&c.s)
			ar.util.Start(&c.acc, ar.now, h.S.P.LossProb, &ds.steps)
			c.sends = append(c.sends[:0], model.Send{Seq: ar.seq, At: t})
			for _, snd := range pending {
				if snd.At > t {
					c.sends = append(c.sends, snd)
				}
			}
			c.next = 0
			if !c.deferred {
				live++
			}
		}
	}
	if tw.deferred > 0 {
		tw.close(lanes[:forked], gains)
	}
	if twin {
		ds.tally.Closed += int64(tw.closed)
		*tw.rec.reach = uint8(1 + tw.reach)
	}
}

// twinSweep is the lagged-twin mode's state within one sweep: the packet's
// bits x and service time ℓ (lag), H (horizon), what a delivery is valued
// by; taken, the baseline's value over the stops behind (plus the running
// segment, A at its instant), and segs, per stop, for catching lanes up.
// The deferred lanes are those from first on whose flag is set (deferred
// of them; closed so far), read the first whose A(u) is still to come. u
// is BacklogDone at the last fork, carried while busy, u0 at the first.
// seen counts the gaps of the log booked in full, idle says the link has
// been idle since dry (A there aDry), dEnd is when the packet served at
// H−ℓ leaves (see stretch); slip and pkt memoize Slip and the packet value
// for slipE and pktU. rec is the twin record in the making, tails counts
// the A(H−i·ℓ) still to read, and reach is how deep the record serves.
// quiet says nothing arrives to H: every lane closes at its fork.
type twinSweep struct {
	x                 int64
	lag, horizon, now time.Duration
	quiet             bool
	kappa, survive    float64
	taken             float64
	deferred, closed  int
	first, read       int
	segs              []float64
	u, u0             time.Duration
	busy              bool
	gaps              []model.Gap
	seen              int
	idle              bool
	dry, dEnd         time.Duration
	aDry              float64
	slipE, pktU       time.Duration
	slip, pkt         float64
	rec               twinRecord
	tails, reach      int
}

// start arms the mode for one hypothesis: the baseline's accumulator
// watches the theorem's premises, as deep as a record serves, and logs its
// gaps, the one under way included. A quiet hypothesis's baseline has no
// accumulator (acc nil), and its record's A is 0 throughout.
func (tw *twinSweep) start(base *model.State, acc *model.Accum, stops []time.Duration, rec twinRecord, now time.Duration, kappa, survive float64) {
	p := base.P
	*tw = twinSweep{x: p.PktBits(), lag: p.ServiceTime(), horizon: stops[len(stops)-1], now: now, quiet: acc == nil, kappa: kappa, survive: survive,
		segs: slices.Grow(tw.segs[:0], len(stops))[:len(stops)], gaps: tw.gaps[:0], dEnd: units.Forever,
		rec: rec, tails: twinDepth + 1, reach: twinDepth}
	*tw.rec.twinHead = twinHead{slip: -math.Expm1(-float64(tw.lag) / kappa)}
	tw.slipE, tw.slip, tw.pktU = tw.lag, tw.rec.slip, -1
	if tw.quiet {
		return
	}
	if !base.Serving {
		tw.gaps = append(tw.gaps, model.Gap{Dry: base.Now, End: units.Forever})
	}
	acc.Watch(tw.x, tw.lag, twinDepth+1, &tw.gaps)
}

// fork decides what becomes of the candidate forking from base at stop j:
// dropped where it forks (reported; the lane is done), deferred as a
// lagged twin — its packet served from u, or from the fork on an idle link
// — or, when that packet would not be through by H, left to be simulated.
// It also settles, depth by depth, what becomes of the candidate in a
// burst's later decisions, whose baseline is this one m packets behind:
// dropped there (recorded), admitted with its packet through by H, or not
// known from this baseline — which, like an idle link or a simulated lane,
// ends the record's reach. On a quiet hypothesis the candidate's packet is
// the last arrival, so every lane closes here, into gains[j]: its packet's
// value, or 0 if it is dropped or not through by H. fork reports whether
// the lane is done.
func (tw *twinSweep) fork(c *lane, base *model.State, acc *model.Accum, gains []float64, j int) (done bool) {
	if tw.quiet {
		tw.closed++
	}
	u := base.Now
	if !base.Serving {
		tw.busy, tw.reach = false, 0
	} else {
		var queued time.Duration
		if !tw.quiet {
			queued = acc.TakeQueued()
		}
		if tw.busy {
			tw.u += queued
		} else {
			tw.u, tw.busy = base.BacklogDone(), true
		}
		room := base.P.BufferCapBits - base.QueueBits - tw.x
		if j == 0 {
			// The burst's earlier packets join the queue at this instant: as
			// many of them must fit.
			tw.u0, tw.reach = tw.u, min(tw.reach, int((room+tw.x)/tw.x))
		}
		if room < 0 {
			c.done, tw.rec.drop[j] = true, 0
			return true
		}
		drop, reach := uint8(noDrop), tw.reach
		for m := 1; m <= reach; m++ {
			lo, hi := base.TwinSurplus(m, tw.x, tw.lag, tw.u0)
			if lo > room {
				drop = min(drop, uint8(m))
			} else if hi > room || drop != noDrop || tw.u+time.Duration(m+1)*tw.lag > tw.horizon {
				reach = m - 1
			}
		}
		tw.rec.drop[j], tw.reach, u = drop, reach, tw.u
	}
	if u+tw.lag > tw.horizon {
		tw.reach = 0
		c.done = tw.quiet
		return tw.quiet
	}
	if u != tw.pktU {
		tw.pktU, tw.pkt = u, model.PacketValue(tw.x, tw.survive, u+tw.lag-tw.now, tw.kappa)
	}
	tw.rec.pkt[j] = tw.pkt
	c.lag = model.Lag{E: tw.lag, From: u, Gain: tw.pkt}
	c.done = true
	if tw.quiet {
		gains[j], tw.rec.au[j] = c.lag.Gain, c.lag.A
		return true
	}
	if tw.deferred == 0 {
		tw.first = j
	}
	c.deferred = true
	tw.deferred++
	return false
}

// pause stops the baseline, on its way to t, at every instant the closed
// form reads its value at — each deferred lane's u and H−i·ℓ down to H−ℓ,
// in time order — without Take: the segment partition, and so every
// simulated lane's bits, stay what they are.
func (tw *twinSweep) pause(base *model.State, acc *model.Accum, lanes []lane, t time.Duration) {
	for {
		for tw.read < len(lanes) && !lanes[tw.read].deferred {
			tw.read++
		}
		at, tail := t+1, false
		if tw.read < len(lanes) {
			at = lanes[tw.read].lag.From // u: read before any gap moves it
		}
		if h := tw.horizon - time.Duration(tw.tails)*tw.lag; tw.tails > 0 && h < at {
			at, tail = h, true
		}
		if at > t {
			return
		}
		if at < base.Now {
			// Only a tail H−2ℓ or earlier can be behind the baseline (a
			// deferred lane's u+ℓ is not past H): the depths reading it are
			// out of reach.
			tw.reach = min(tw.reach, max(tw.tails-2, 0))
		}
		base.RunAccum(at, nil, acc)
		a := tw.taken + acc.Pending()
		if !tail {
			lanes[tw.read].lag.A = a
			tw.read++
			continue
		}
		tw.rec.tail[tw.tails] = a
		if tw.tails == 1 && base.Serving {
			tw.dEnd = base.ServiceDone
		}
		tw.tails--
	}
}

// endStop books the baseline's segment for stop j and asks its watch how
// deep the premises held on the way, which bounds the record's reach. If
// not even one twin had room for every arrival, every deferred lane is
// simulated after all: caught up from its fork clone through the stops it
// sat out — at none of which it could have equalled the baseline, its lag
// not absorbed, so none is checked — and live again for the lockstep at
// stop j; endStop returns how many lanes that was. Then it books the gaps
// the link idled through into every lane still deferred — at the instant
// it ran dry the busy stretch up to it, at the arrival that ended it the
// gap — and closes the lanes whose lag a gap absorbs, open gaps included.
func (tw *twinSweep) endStop(acc *model.Accum, lanes []lane, gains []float64, stops []time.Duration, j int, seg float64) (revived int) {
	a0 := tw.taken
	tw.segs[j] = seg
	tw.taken += seg
	level := acc.TakeWatch()
	tw.reach = min(tw.reach, max(level-1, 0))
	if level == 0 {
		for k := tw.first; k < len(lanes) && tw.deferred > 0; k++ {
			if c := &lanes[k]; c.deferred {
				c.done, c.deferred = false, false
				for m := k + 1; m < j; m++ {
					gains[k] += c.run(stops[m]) - tw.segs[m]
				}
			}
		}
		revived, tw.deferred, tw.busy = tw.deferred, 0, false
	}
	for ; tw.seen < len(tw.gaps); tw.seen++ {
		g := &tw.gaps[tw.seen]
		tw.busy, tw.reach = false, 0
		if !tw.idle {
			tw.idle, tw.dry, tw.aDry = true, g.Dry, a0+g.Value
			for k := tw.first; k < len(lanes); k++ {
				if c := &lanes[k]; c.deferred {
					tw.stretch(&c.lag, g.Dry, tw.aDry)
				}
			}
		}
		if g.End == units.Forever {
			break
		}
		tw.idle = false
		tw.absorb(lanes, gains, g.End, false)
	}
	if tw.idle {
		tw.absorb(lanes, gains, stops[j], true)
	}
	return revived
}

// absorb carries every deferred lane's lag across the gap under way to
// end (open: only asks whether the gap has absorbed it by end), and closes
// the lanes whose lag it absorbs.
func (tw *twinSweep) absorb(lanes []lane, gains []float64, end time.Duration, open bool) {
	for k := tw.first; k < len(lanes); k++ {
		if c := &lanes[k]; c.deferred {
			if l := c.lag; l.Idle(tw.dry, end, tw.aDry) {
				gains[k], c.deferred = l.Gain, false
				tw.deferred--
				tw.closed++
			} else if !open {
				c.lag = l
			}
		}
	}
}

// stretch books a lane's busy stretch to end, where A was aEnd. A cut
// inside it lies in H's last ℓ, past the lane's u, where nothing the
// baseline serves is faster than ℓ: it delivers once there at most, at
// dEnd, so A at the cut is A(H−ℓ) before dEnd and aEnd from it on.
func (tw *twinSweep) stretch(l *model.Lag, end time.Duration, aEnd float64) {
	aCut := aEnd
	if cut := l.Cut(end, tw.horizon); cut == l.From {
		aCut = l.A
	} else if cut < end && cut < tw.dEnd {
		aCut = tw.rec.tail[1]
	}
	if l.E != tw.slipE {
		tw.slipE, tw.slip = l.E, l.Slip(tw.kappa)
	}
	l.Stretch(aCut, aEnd, tw.slip)
}

// close closes every lane still deferred at the horizon, booking the
// stretch it is carried through at H if the link is busy there: with no
// gap on the way, the record's closed form at depth 0 (twinRecord.gain)
// bit for bit, and the record is completed with what that form reads.
func (tw *twinSweep) close(lanes []lane, gains []float64) {
	tw.rec.tail[0] = tw.taken
	for k := tw.first; k < len(lanes); k++ {
		if c := &lanes[k]; c.deferred {
			if !tw.idle {
				tw.stretch(&c.lag, tw.horizon, tw.taken)
			}
			tw.rec.au[k], gains[k] = c.lag.A, c.lag.Gain
			tw.closed++
		}
	}
}

// twinGate reports whether hypothesis s, planned to horizon by a call
// with no latency penalty and no committed send still to come, may close
// candidates as lagged twins of its baseline: nothing but the link's clock
// stamps a delivery, and no chunk arriving by the horizon is smaller than a
// candidate's packet — vacuously so on a quiet hypothesis. Every input is a
// size or a time relative to the decision instant, all of them in the
// rollout key.
func twinGate(s *model.State, horizon time.Duration) bool {
	return s.P.ClockSkew == 0 && (quiet(s, horizon) || s.P.CrossBits() >= s.P.PktBits())
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
// state for the sweep in hand, and the worker's lane counts since Decide
// last collected them.
type decideScratch struct {
	base  model.Accum
	steps model.StepTable
	lanes []lane
	tw    twinSweep
	tally MemoStats // the lane counts only
}

// lane is one candidate's rollout: its live state, its accumulator and
// its send view. A deferred lane holds its fork clone untouched, and its
// closed form so far in lag.
type lane struct {
	s        model.State
	acc      model.Accum
	sends    []model.Send
	next     int // first send not yet handed to the state
	done     bool
	deferred bool
	lag      model.Lag
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
