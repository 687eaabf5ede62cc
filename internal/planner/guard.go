package planner

import (
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
)

// CompiledPolicy is an offline-compiled, read-only belief → action map:
// §3.3's policy "computed in advance" made persistent. internal/policy
// implements it over an mmap-ed flat table; the Guard probes it before
// any live planning (a table hit is the O(1) production serving path)
// and feeds live decisions the table missed back to it, seeding the
// next compile.
type CompiledPolicy interface {
	// Probe returns the compiled action for this belief, rebased to
	// now, or ok = false on a table miss (including a detected
	// fingerprint collision, which must be treated as a miss).
	Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (Decision, bool)
	// RecordMiss notes a live decision the table could not serve, so
	// the next compile covers the situation.
	RecordMiss(sup []belief.Hypothesis, pending []model.Send, now time.Duration, d Decision)
}

// Guard bounds how long one decision may take. The planner's expected
// wake-to-wake latency is milliseconds, but a chaotic run can hand it a
// pathological posterior (a blackout-widened support, a reseeded prior)
// exactly when the sender can least afford to stall: on a real socket
// path a late decision is a missed transmission opportunity, and the
// event loop behind it backs up.
//
// Guard.Decide first probes the compiled policy table, when one is
// wired: a hit answers in O(1) without touching the live planner at
// all. On a table miss it runs the live Decide on a background
// goroutine against a deep-cloned snapshot of the belief and races it
// against Budget. On timeout it walks the degradation ladder:
//
//  0. the compiled table (Compiled) — an offline-verified action for
//     exactly this quantized situation;
//  1. live Decide, if it returns within Budget (the common case);
//  2. the PolicyCache — a quantized near-match of the current situation
//     computed on some earlier wake;
//  3. the last safe action: re-arm the most recent non-send pacing
//     interval, rebased to now;
//  4. no action at all: sleep one Grid and re-decide.
//
// Rungs 3 and 4 never send — a sender that has lost both its live
// planner and its cache is flying blind, and the conservative action on
// an unknown network is silence, not a burst.
//
// A Decide that blows its budget keeps cooking: its result is drained on
// a later call and stored into the cache, so one slow decision seeds the
// fallback for the next. At most one background Decide is in flight; the
// result channel is buffered, so an abandoned straggler can never leak a
// goroutine.
//
// Guard is not safe for concurrent use; like Sender it belongs to one
// driver goroutine. A read-only CompiledPolicy may be shared by many
// Guards (the fleet shares one table across all members).
type Guard struct {
	// Budget is the per-decision deadline. Zero or negative means no
	// deadline: Decide runs synchronously (through Cache when set).
	Budget time.Duration
	// Cache, when non-nil, is both the timeout fallback (rung 2) and the
	// store for background results.
	Cache *PolicyCache
	// Compiled, when non-nil, is the offline-compiled policy table,
	// probed before any live planning (the table is immutable during a
	// run, so the fallback ladder does not probe it a second time).
	// Live decisions it missed are reported back via RecordMiss.
	Compiled CompiledPolicy
	// Degraded, when true, pins Decide to the degradation ladder
	// without ever live-planning: the compiled table when wired, else
	// cache → last-safe → sleep. A shard watchdog sets it for members
	// hosted on a shard that blew its per-window budget (or, in tests,
	// on an injected-stall schedule) — precomputed actions ride out the
	// outage, the sequence-based-control shape. Degraded serving does
	// not advance ConsecutiveOverruns: the planner is not wedged, it
	// has been administratively bypassed, and a health sweep must not
	// declare a watchdogged member failed.
	Degraded bool
	// DegradedServed counts decisions served while Degraded was set.
	DegradedServed int64

	// Live counts decisions served by the live planner within budget;
	// CompiledHits, decisions served by the compiled table;
	// CacheHits, fallbacks served from the cache; SafeFallbacks,
	// decisions that fell to rung 3/4; Timeouts, budget expiries;
	// Overlaps, calls that arrived while a prior Decide was still
	// cooking.
	Live          int64
	CompiledHits  int64
	CacheHits     int64
	SafeFallbacks int64
	Timeouts      int64
	Overlaps      int64
	// ConsecutiveOverruns counts deadline overruns (timeouts and
	// overlapped calls) since the last decision the live planner or the
	// compiled table answered — the "planner is wedged" signal a
	// lifecycle Supervisor declares failure on. A cache hit does not
	// reset it: serving stale near-matches is survival, not health.
	ConsecutiveOverruns int64

	// RecordLatency, when true, appends each Decide call's wall-clock
	// duration in nanoseconds to Latencies — benchmark instrumentation
	// for the serving-path tail (p50/p99); leave false in production.
	RecordLatency bool
	Latencies     []int64

	inflight      chan guardResult
	lastSafeDelta time.Duration
	haveSafe      bool

	// plan is the background planner; nil means Decide. Tests replace it
	// with one that blocks until released, so a budget expires because
	// the planner has not answered, not because a timer won a race.
	plan func([]belief.Hypothesis, []model.Send, time.Duration, int64, Config) Decision
}

// guardResult carries a background decision together with the snapshot
// it was computed from, so it can be fingerprinted into the cache.
type guardResult struct {
	d       Decision
	sup     []belief.Hypothesis
	pending []model.Send
	now     time.Duration
}

// NewGuard returns a Guard with the given budget over an optional cache.
func NewGuard(budget time.Duration, cache *PolicyCache) *Guard {
	return &Guard{Budget: budget, Cache: cache}
}

// Decide returns an action for the packet with sequence number seq, on
// the wake's belief with the pending sends, within roughly Budget,
// degrading per the ladder above.
func (g *Guard) Decide(w *Wake, pending []model.Send, seq int64, cfg Config) Decision {
	sup, now := w.sup, w.now
	if g.RecordLatency {
		start := time.Now()
		defer func() { g.Latencies = append(g.Latencies, time.Since(start).Nanoseconds()) }()
	}
	if g.Degraded {
		g.DegradedServed++
		if g.Compiled != nil {
			if d, ok := g.Compiled.Probe(sup, pending, now); ok {
				g.CompiledHits++
				g.noteSafe(d, now)
				return d
			}
		}
		return g.fallback(w, pending, cfg)
	}
	// Rung 0: the compiled table answers without planning at all.
	if g.Compiled != nil {
		if d, ok := g.Compiled.Probe(sup, pending, now); ok {
			g.CompiledHits++
			g.ConsecutiveOverruns = 0
			g.noteSafe(d, now)
			return d
		}
	}
	if g.Budget <= 0 {
		var d Decision
		if g.Cache != nil {
			d = g.Cache.Decide(w, pending, seq, cfg)
		} else {
			d = w.Decide(pending, seq, cfg)
		}
		g.Live++
		g.ConsecutiveOverruns = 0
		if g.Compiled != nil {
			g.Compiled.RecordMiss(sup, pending, now, d)
		}
		g.noteSafe(d, now)
		return d
	}

	// Drain a straggler that finished since the last wake.
	if g.inflight != nil {
		select {
		case res := <-g.inflight:
			g.inflight = nil
			g.absorb(res)
		default:
		}
	}
	if g.inflight != nil {
		// A previous decision is still cooking; stacking another
		// goroutine on a planner that is already too slow only digs the
		// hole deeper.
		g.Overlaps++
		g.ConsecutiveOverruns++
		return g.fallback(w, pending, cfg)
	}

	// Snapshot the belief for the background goroutine: the belief will
	// mutate these states on its next Update, and topK copies only the
	// hypothesis headers.
	hyps := topK(sup, cfg.withDefaults().MaxHyps)
	for i := range hyps {
		hyps[i].S = hyps[i].S.Clone()
	}
	pcopy := append([]model.Send(nil), pending...)
	bg := cfg
	// The caller's pool is single-checkout; the goroutine takes its own
	// from the shared pool cache instead.
	bg.Pool = nil
	plan := g.plan
	if plan == nil {
		plan = Decide
	}
	ch := make(chan guardResult, 1)
	g.inflight = ch
	go func() {
		ch <- guardResult{d: plan(hyps, pcopy, now, seq, bg), sup: hyps, pending: pcopy, now: now}
	}()

	timer := time.NewTimer(g.Budget)
	select {
	case res := <-ch:
		timer.Stop()
		g.inflight = nil
		g.absorb(res)
		g.Live++
		g.ConsecutiveOverruns = 0
		if g.Compiled != nil {
			g.Compiled.RecordMiss(sup, pending, now, res.d)
		}
		g.noteSafe(res.d, now)
		return res.d
	case <-timer.C:
		g.Timeouts++
		g.ConsecutiveOverruns++
		return g.fallback(w, pending, cfg)
	}
}

// LastSafe reports the remembered safe pacing interval (rung 3's replay
// delta) and whether one exists — checkpointed so a warm-restored
// member degrades exactly as the original would.
func (g *Guard) LastSafe() (time.Duration, bool) { return g.lastSafeDelta, g.haveSafe }

// RestoreLastSafe reinstates a checkpointed safe pacing interval;
// non-positive deltas are ignored (they could never have been recorded).
func (g *Guard) RestoreLastSafe(delta time.Duration) {
	if delta > 0 {
		g.lastSafeDelta = delta
		g.haveSafe = true
	}
}

// fallback walks rungs 2–4 of the ladder.
func (g *Guard) fallback(w *Wake, pending []model.Send, cfg Config) Decision {
	if g.Cache != nil {
		if d, ok := g.Cache.Lookup(w, pending); ok {
			g.CacheHits++
			g.noteSafe(d, w.now)
			return d
		}
	}
	g.SafeFallbacks++
	grid := cfg.Grid
	if grid <= 0 {
		grid = DefaultConfig().Grid
	}
	wake := w.now + grid
	if g.haveSafe && g.lastSafeDelta > 0 {
		wake = w.now + g.lastSafeDelta
	}
	return Decision{SendNow: false, WakeAt: wake}
}

// absorb stores a background result into the cache under the snapshot it
// was computed from.
func (g *Guard) absorb(res guardResult) {
	if g.Cache != nil {
		g.Cache.Store(res.sup, res.pending, res.now, res.d)
	}
	g.noteSafe(res.d, res.now)
}

// noteSafe remembers the pacing interval of the most recent non-send
// decision; send decisions are never replayed blind (a stale "send now"
// under repeated timeouts would burst into a network that just proved
// unpredictable).
func (g *Guard) noteSafe(d Decision, now time.Duration) {
	if d.SendNow {
		return
	}
	if delta := d.WakeAt - now; delta > 0 {
		g.lastSafeDelta = delta
		g.haveSafe = true
	}
}
