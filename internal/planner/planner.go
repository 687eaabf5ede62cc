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
// A saturated hypothesis is not rolled candidate by candidate at all. On a
// fleet the modeled link never idles inside the horizon, so a candidate's
// consequences never "cease to linger": its packet joins the backlog and
// everything behind it leaves one service time later, for ever — the lane
// never reconverges with its baseline and would be simulated to the
// horizon. But a lagged copy of the baseline carries no information the
// baseline does not (the theorem is stated at model.State.BacklogDone), so
// the sweep defers such a lane at its fork — cloned, not advanced — reads
// the baseline's running value as it passes the instants that matter, and
// closes the lane's gain at the horizon (twinSweep.close has the formula).
// The baseline's accumulator watches the theorem's two premises
// (model.Accum.Watch), and the first stop that reports one broken turns
// every deferred lane back into a simulated one, caught up from its fork
// clone bit for bit. A closed gain is the simulated gain up to the
// rounding of a different summation order, some five orders of magnitude
// under the tie band of reduce, so no decision can tell. twinGate decides
// per hypothesis, from sizes and relative times only, whether the mode is
// on; a hypothesis it refuses (every hypothesis of the paper's Figure 3)
// is swept exactly as before, bit for bit.
//
// And a saturated hypothesis is rolled once per wake, not once per
// decision. A sender re-decides after every packet it injects (§3.2–3.3),
// so a wake is a burst of Decide calls at one instant on one belief, each
// with one more own packet committed at now; counted on a 256-sender
// fleet every wake that plans live makes exactly four. The baseline of the
// call m packets in is the first call's with m packets at the queue tail —
// the lagged twin again, applied to the baseline, m service times late —
// and a candidate of that call is the first call's baseline m+1 late from
// its fork on. So the first call's sweep leaves a twin record beside its
// gain vector in the memo (twinRecord: per candidate the packet's value,
// the baseline's value at its u and whether it is dropped on arrival m
// packets deeper; the baseline's value at the horizon's last few service
// times; and how deep the watch found the premises to hold), and the
// later calls derive their gain vectors from it in a few flops per
// candidate (twinRecord.derive has the formula) instead of simulating the
// same hypothesis again. Derived gains differ from rolled ones by a
// summation order, like closed ones.
//
// What only the wake decides is paid for once per wake: the top-K copy,
// each hypothesis's rollout-key hash and the fingerprint's support half
// are taken at a Wake's first decision and kept for the rest, keyed by
// the Wake alone (see Wake). And the lagged twin's complement closes too:
// a hypothesis nothing arrives at to the horizon is drained, a candidate's
// packet is the last arrival, and its gain is the packet's own value
// (model.State.DrainedGains) — no lane simulates the backlog draining.
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
// packet with sequence number seq. pending are sends already committed
// but not yet folded into the belief (they are replayed in every
// rollout, so successive decisions within one wakeup see each other's
// queue occupancy).
//
// The per-hypothesis work is one forward sweep over a grid of sync
// stops (every candidate send time, then every lockstepChunk), built
// for the rollout engine's eight economies. (1) The no-send baseline is
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
// (see the package comment and decideArena.sweep). (6) A candidate
// admitted into a backlog that will not idle before the horizon — where
// economy (2) never fires, because a twin one packet behind never
// coincides with its baseline — is not simulated: it is the baseline one
// service time late, and its gain is closed at the horizon from the
// baseline's running value (see the package comment). What is still
// simulated, and why: every lane of a hypothesis twinGate refuses and
// (8) does not close — a cross-latency penalty or a skewed clock (a
// delivery's value is then not a function of its instant alone), a
// committed send still to come or a cross chunk smaller than a packet (the
// twin is then not a pure lag), a backlog that cannot outlast the horizon
// (deferring would only add a catch-up); a lane forked into an idle link
// or whose packet would not be through by the horizon; and every lane
// deferred before a stop at which
// the baseline's link idled or an arrival left a twin no room — where one
// packet displaces another, which is where the large negative gains are.
// MemoStats counts the three outcomes. (7) A burst is swept once. When the
// pending list ends in m sends of the uniform size stamped now (1 ≤ m ≤
// twinDepth) the call is the (m+1)-th decision of a wake, and a gain vector
// it has to produce is derived from the twin record of the burst's first
// decision — the same hypothesis keyed under the pending list without
// those m sends — when that record reaches depth m: the watch stayed clean
// m+1 packets deep to the horizon, the m packets fit at now, every
// candidate was closed or dropped at depth 0 and is either surely dropped
// or surely admitted m packets deeper with its packet through by the
// horizon. The rule is canonical, which is what keeps a warm memo from
// reaching a Decision: the value produced for a key is a function of the
// key alone. On a miss the record is looked up under the first decision's
// key; if it is not resident the first decision's baseline is swept
// (MemoStats.Stripped; the cost of the sweep it replaces, and vector and
// record go into the memo for the rest of the burst) and the vector
// derived from the fresh record — never swept directly because the record
// happened to be missing; and only a record that says it does not reach
// depth m sends the hypothesis down the direct sweep, as do, without
// asking, a hypothesis with no record resident that twinGate refuses (it
// is asked under the call's own pending list, once, and the sweep told; a
// refusal there is one under the first decision's shorter list too, so no
// record of it can exist), a burst deeper than twinDepth, and a trailing
// send of another size or an earlier instant (which makes it no burst at
// all). Whether the
// record was resident, evicted or never made, the same key gets the same
// vector. What is still swept in a burst: its first decision; every
// hypothesis the gate refuses (all of Figure 3); and the hypotheses whose
// record does not reach — a stop was dirty (the buffer is full where a
// chunk arrives: most of them), the m packets do not fit, or a lane was
// simulated at depth 0.
//
// (8) A drained hypothesis is not swept. When nothing arrives behind a
// candidate's packet to the horizon — no committed send after now, the
// gate off or the next tick past the horizon, no penalty, no skew — its
// gain is its packet's own value, closed (model.State.DrainedGains): no
// lane, no fork clone, no lockstep. It is the complement of (6), asked of
// every hypothesis (6) does not take in every kind of sweep, a burst's
// later decisions included, and like (6) differs from simulation by a
// summation order; MemoStats.Drained counts its lanes.
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

	// The call-level half of twinGate and drainGate: a delivery is valued
	// by its instant alone, and no committed send is still to come. Under
	// it, a call whose pending list ends in burst sends of the uniform size
	// stamped now is a later decision of a burst; the list without them is
	// the first one's.
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

	// Memo look-ups, in index order on this goroutine: a hypothesis whose
	// key an earlier call stored takes that gain vector, one whose key an
	// earlier hypothesis of this call has shares its vector, a later
	// decision of a burst whose first left its twin record in the memo is
	// derived from it, and only the rest are swept: under the burst's first
	// plan (bare) where the record is wanted and missing and the gate takes
	// the hypothesis, under the call's own otherwise (roll; where the gate
	// has just refused, the sweep asks it again and is refused again).
	plan := planKey(pending, now, cfg)
	var firstPlan memoKey
	if derives {
		firstPlan = planKey(first, now, cfg)
		ar.bkeys = slices.Grow(ar.bkeys[:0], width)[:n]
	}
	ar.keys = slices.Grow(ar.keys[:0], n)[:n]
	ar.from = slices.Grow(ar.from[:0], n)[:n]
	keys, from, fresh, roll, bare := ar.keys, ar.from, ar.fresh[:0], ar.roll[:0], ar.bare[:0]
	for i, hyp := range ar.hkeys {
		keys[i] = hyp.under(plan)
		from[i] = -1
		if ar.memo.lookup(keys[i], row(i)) {
			continue
		}
		for _, j := range fresh {
			if keys[j] == keys[i] {
				from[i] = j
				ar.memo.Shared++
				break
			}
		}
		if from[i] >= 0 {
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
			} else if twinGate(&hyps[i].S, pending, horizonEnd) {
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
// When the hypothesis passes twinGate a candidate forked into a busy link
// is not advanced at all: it is deferred, a lagged twin of the baseline
// (model.State.BacklogDone) whose gain the baseline's running value
// closes at the horizon. The baseline's watch says, stop by stop,
// whether the premises still hold; the first stop at which they do not
// turns every deferred lane back into a simulated one, caught up from
// its fork clone. Such a sweep also fills the hypothesis's twin record
// (ar.recs), which Decide keeps when the sweep is of a burst's first
// decision.
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
	twin := ar.twins && twinGate(&h.S, pending, horizon)
	if !twin && ar.twins && drainGate(&h.S, horizon) {
		// Drained: every pending send is due by now.
		base.Run(ar.now, pending, nil)
		base.DrainedGains(stops[:candidates], gains, ar.now, horizon, 1-h.S.P.LossProb, float64(ar.util.Kappa))
		ds.tally.Drained += int64(candidates)
		return
	}
	ar.util.Start(&ds.base, ar.now, h.S.P.LossProb, &ds.steps)

	// The lagged-twin mode (ds.tw): under it a candidate forked into a
	// busy link is deferred — marked done as well, so the lockstep passes
	// over it — and the baseline pauses on its way to read the value it
	// has delivered by the instants the closed form needs.
	tw := &ds.tw
	tw.deferred = 0
	if twin {
		tw.start(&ds.base, &h.S.P, stops, ar.recs.at(i, candidates))
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
			tw.pause(base, &ds.base, lanes[:forked], t)
		}
		base.RunAccum(t, pending[si:hi], &ds.base)
		si = hi
		baseSeg := ds.base.Take()
		if twin {
			n := tw.endStop(&ds.base, lanes[:forked], gains, stops, j, baseSeg)
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
			if twin && tw.fork(c, base, &ds.base, j) {
				// Tail-dropped on arrival: the candidate is its baseline
				// from here on.
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
		ds.tally.Closed += int64(tw.deferred)
		tw.close(lanes[:forked], gains, ar.now, float64(ar.util.Kappa), 1-h.S.P.LossProb)
	}
	if twin {
		*tw.rec.reach = uint8(1 + tw.reach)
	}
}

// twinSweep is the lagged-twin mode's state within one sweep. x and lag
// are the candidate packet's bits and service time ℓ, horizon is H; taken
// is the baseline's value over the stops behind it, so taken plus the
// running segment is A at the baseline's instant, and segs keeps the
// per-stop segments a deferred lane is caught up against. The deferred
// lanes are the ones from first on whose deferred flag is set — a lane
// forked after them may have been dropped there, or be live because its
// u+ℓ is past H; deferred counts them and read is the first whose A(u) is
// still to come (u is monotone in the lane index while the link stays
// busy, so one cursor serves). u is the baseline's BacklogDone at the
// last fork, carried from fork to fork while busy says the link has not
// idled since, and u0 what it was at the first, the decision instant.
//
// rec is the sweep's twin record in the making — the values the closed
// form reads go straight into it — tails counts the A(H−i·ℓ) still to be
// read, and reach is the depth down to which the record serves a burst's
// later decisions as far as the sweep has seen.
type twinSweep struct {
	x            int64
	lag, horizon time.Duration
	taken        float64
	deferred     int
	first, read  int
	segs         []float64
	u, u0        time.Duration
	busy         bool
	rec          twinRecord
	tails, reach int
}

// start arms the mode for one hypothesis: the baseline's accumulator
// watches the theorem's premises from here on, as deep as a record serves.
func (tw *twinSweep) start(acc *model.Accum, p *model.Params, stops []time.Duration, rec twinRecord) {
	*tw = twinSweep{x: p.PktBits(), lag: p.ServiceTime(), horizon: stops[len(stops)-1], segs: slices.Grow(tw.segs[:0], len(stops))[:len(stops)],
		rec: rec, tails: twinDepth + 1, reach: twinDepth}
	acc.Watch(tw.x, tw.lag, twinDepth+1)
}

// fork decides what becomes of the candidate forking from base at stop j:
// dropped where it forks (reported; the lane is done), deferred as a
// lagged twin, or — into an idle link, or when its packet would not be
// through by the horizon — left to be simulated. It also settles, depth
// by depth, what becomes of the same candidate in a burst's later
// decisions, whose baseline is this one m packets behind since the
// decision instant: dropped there (recorded), admitted with its packet
// through by the horizon, or not known from this baseline — which, like
// a lane left to be simulated, ends the record's reach.
func (tw *twinSweep) fork(c *lane, base *model.State, acc *model.Accum, j int) (dropped bool) {
	if !base.Serving {
		tw.busy, tw.reach = false, 0
		return false
	}
	if queued := acc.TakeQueued(); tw.busy {
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
	tw.rec.drop[j], tw.reach = drop, reach
	if c.u = tw.u; c.u+tw.lag <= tw.horizon {
		if tw.deferred == 0 {
			tw.first = j
		}
		c.done, c.deferred = true, true
		tw.deferred++
	} else {
		tw.reach = 0
	}
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
			at = lanes[tw.read].u
		}
		if h := tw.horizon - time.Duration(tw.tails)*tw.lag; tw.tails > 0 && h < at {
			at, tail = h, true
		}
		if at > t {
			return
		}
		if at < base.Now {
			// Only a tail can be behind the baseline (a deferred lane's u is
			// ahead of its fork), and only under a horizon of a few ℓ: the
			// depths that read it are out of reach.
			tw.reach = min(tw.reach, max(tw.tails-2, 0))
		}
		base.RunAccum(at, nil, acc)
		if a := tw.taken + acc.Pending(); tail {
			tw.rec.tail[tw.tails] = a
			tw.tails--
		} else {
			tw.rec.au[tw.read] = a
			tw.read++
		}
	}
}

// endStop books the baseline's segment for stop j and asks its watch how
// deep the premises held on the way, which bounds the record's reach. If
// they did not hold at all — the link idled or an arrival left a single
// twin no room — every deferred lane is simulated after all: caught up
// from its fork clone, lane by lane, through the stops it sat out — at
// none of which it could have equalled the baseline (the theorem held up
// to the last stop), so none is checked — and live again for the lockstep
// at stop j. It returns how many lanes that was.
func (tw *twinSweep) endStop(acc *model.Accum, lanes []lane, gains []float64, stops []time.Duration, j int, seg float64) (revived int) {
	tw.segs[j] = seg
	tw.taken += seg
	level := acc.TakeWatch()
	tw.reach = min(tw.reach, max(level-1, 0))
	if level > 0 {
		return 0
	}
	tw.busy = false
	if tw.deferred == 0 {
		return 0
	}
	for k := tw.first; k < len(lanes); k++ {
		// Only a deferred lane sat stops out: one forked after it with
		// its u+ℓ past the horizon has been live all along.
		if c := &lanes[k]; c.deferred {
			c.done, c.deferred = false, false
			for m := k + 1; m < j; m++ {
				gains[k] += c.run(stops[m]) - tw.segs[m]
			}
		}
	}
	revived, tw.deferred = tw.deferred, 0
	return revived
}

// close gives every lane still deferred at the horizon H its gain, the
// record's closed form at depth 0 (twinRecord.gain), having completed the
// record with what that reads: the value of each lane's packet, x bits
// that survive the last mile with probability 1−p, delivered at u+ℓ.
func (tw *twinSweep) close(lanes []lane, gains []float64, now time.Duration, kappa, survive float64) {
	tw.rec.slip = -math.Expm1(-float64(tw.lag) / kappa)
	tw.rec.tail[0] = tw.taken
	for k := tw.first; k < len(lanes); k++ {
		if c := &lanes[k]; c.deferred {
			tw.rec.pkt[k] = model.PacketValue(tw.x, survive, c.u+tw.lag-now, kappa)
			gains[k] = tw.rec.gain(0, k)
		}
	}
}

// twinGate reports whether hypothesis s, planned to horizon with the
// call's pending sends, may defer candidates as lagged twins of its
// baseline. The premises of the theorem that the watch cannot see are
// checked here — nothing but the link's clock stamps a delivery, and no
// arrival behind a candidate's packet is smaller than it; the call-level
// half (no latency penalty, no committed send still to come, which
// leaves the pinger's chunk as the only arrival) is Decide's — and one
// economy: the backlog plus the cross traffic due could keep the link
// busy to the horizon, since a link that will idle materializes every
// lane it deferred, while a refused hypothesis costs exactly the plain
// sweep. Every input is a size or a time relative to the decision
// instant, all of them in the rollout key.
func twinGate(s *model.State, pending []model.Send, horizon time.Duration) bool {
	if s.P.ClockSkew != 0 {
		return false
	}
	x := s.P.PktBits()
	backlog := s.SystemBits()
	for _, snd := range pending {
		if snd.Bits > 0 {
			backlog += snd.Bits
		} else {
			backlog += x
		}
	}
	if s.PingerOn && s.NextCross <= horizon {
		if s.P.CrossBits() < x {
			return false
		}
		backlog += int64((horizon-s.NextCross)/s.P.CrossInterval()+1) * s.P.CrossBits()
	}
	return float64(backlog) >= float64(s.P.LinkRate)*(horizon-s.Now).Seconds()
}

// drainGate reports whether hypothesis s, planned to horizon by a call
// with no latency penalty and nothing committed after now, is drained: no
// pinger chunk arrives by the horizon and the receiver clock is the
// sender's, so a candidate's packet is the last arrival and its gain has
// the closed form of model.State.DrainedGains. Its inputs are in the
// rollout key, like twinGate's.
func drainGate(s *model.State, horizon time.Duration) bool {
	return s.P.ClockSkew == 0 && (!s.PingerOn || s.NextCross > horizon)
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
// its send view. A deferred lane holds its fork clone untouched, with u
// the instant the baseline finishes what was ahead of the candidate's
// packet.
type lane struct {
	s        model.State
	acc      model.Accum
	sends    []model.Send
	next     int // first send not yet handed to the state
	done     bool
	deferred bool
	u        time.Duration
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
