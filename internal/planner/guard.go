package planner

import (
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
)

// CompiledPolicy is an offline-compiled, read-only belief → action map:
// §3.3's policy "computed in advance" made persistent. internal/policy
// implements it over an mmap-ed flat table; the Guard probes it before
// any live planning (a table hit is the O(1) production serving path).
// The table is compiled from the decisions of fleet runs
// (core.Sender.OnDecide); serving never writes to it.
//
// Probe takes the bare support, so an implementation re-fingerprints the
// whole support on every decision of a wake. A policy that also
// implements WakePolicy is handed the wake instead; the Guard calls
// Probe only on a policy that does not, which includes any decorator
// that embeds a CompiledPolicy without re-exporting WakePolicy — so such
// a decorator still sees every probe.
type CompiledPolicy interface {
	// Probe returns the compiled action for this belief, rebased to
	// now, or ok = false on a table miss (including a detected
	// fingerprint collision, which must be treated as a miss).
	Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (Decision, bool)
}

// WakePolicy is the wake-keyed form of CompiledPolicy: the same probe, on
// the wake's belief at its instant, so the fingerprint's support half
// (Wake.Fingerprint) is paid once per wake rather than once per
// decision. The Guard prefers it whenever its CompiledPolicy implements
// it. ProbeWake must answer exactly as Probe does on (w.Support(),
// pending, w.Now()).
type WakePolicy interface {
	ProbeWake(w *Wake, pending []model.Send) (Decision, bool)
}

// Guard is a sender's one decision path (core.NewSender gives every
// sender its own, with no deadline). It can bound how long one decision
// may take, but the budget has no caller outside tests: every driver in
// this module runs in virtual time, where a slow decision costs wall
// time and never a transmission opportunity, so each one plans
// synchronously.
//
// Guard.Decide first probes the compiled policy table, when one is
// wired: a hit answers in O(1) without touching the live planner at
// all, and a table that implements WakePolicy is probed with the wake,
// so all the decisions of one wake share one support print. On a table
// miss it plans synchronously when Budget is zero (through Cache when
// set); with a Budget it runs the live Decide on a background goroutine
// against a deep-cloned snapshot of the belief and races it against
// Budget. The degradation ladder:
//
//  0. the compiled table (Compiled) — an offline-verified action for
//     exactly this quantized situation;
//  1. live Decide, if it returns within Budget (the common case);
//  2. the last safe action: re-arm the most recent non-send pacing
//     interval, rebased to now;
//  3. no action at all: sleep one Grid and re-decide.
//
// A timeout, and every decision while Degraded that the table misses,
// falls to rungs 2 and 3. Neither sends — a sender that has lost its
// live planner is flying blind, and the conservative action on an
// unknown network is silence, not a burst. A precomputed interval rides
// out the outage, the sequence-based-control shape.
//
// A Decide that blows its budget keeps cooking: its result is drained on
// a later call and only noted as the last safe interval when it sleeps.
// At most one background Decide is in flight; the result channel is
// buffered, so an abandoned straggler can never leak a goroutine.
//
// Guard is not safe for concurrent use; like Sender it belongs to one
// driver goroutine. A read-only CompiledPolicy may be shared by many
// Guards (the fleet shares one table across all members).
type Guard struct {
	// Budget is the per-decision deadline; only tests set one. Zero or
	// negative means no deadline: Decide runs synchronously (through
	// Cache when set).
	Budget time.Duration
	// Cache, when non-nil, is the shared cache the synchronous live rung
	// plans through (PolicyCache.Decide); a budgeted Guard plans without
	// it.
	Cache *PolicyCache
	// Compiled, when non-nil, is the offline-compiled policy table,
	// probed before any live planning (the table is immutable during a
	// run, so the fallback ladder does not probe it a second time),
	// through WakePolicy when Compiled implements it, else through Probe
	// on the wake's support.
	Compiled CompiledPolicy
	// Degraded, when true, pins Decide to the degradation ladder
	// without ever live-planning: the compiled table when wired, else
	// last safe → sleep. The sharded runtime sets it each coupling
	// window for members of a stalled shard or of one that blew its
	// per-window budget.
	Degraded bool
	// DegradedServed counts decisions served while Degraded was set.
	DegradedServed int64

	// Live counts decisions served by the live planner within budget;
	// CompiledHits, decisions served by the compiled table;
	// SafeFallbacks, decisions that fell to rung 2 or 3; Timeouts,
	// budget expiries; Overlaps, calls that arrived while a prior
	// Decide was still cooking.
	Live          int64
	CompiledHits  int64
	SafeFallbacks int64
	Timeouts      int64
	Overlaps      int64

	// RecordLatency, when true, appends each Decide call's wall-clock
	// duration in nanoseconds to Latencies — benchmark instrumentation
	// for the serving-path tail (p50/p99); leave false in production.
	RecordLatency bool
	Latencies     []int64

	inflight chan guardResult
	// lastSafeDelta is rung 2's pacing interval, zero until a decision
	// slept.
	lastSafeDelta time.Duration

	// plan is the background planner; nil means Decide. Tests replace it
	// with one that blocks until released, so a budget expires because
	// the planner has not answered, not because a timer won a race.
	plan func([]belief.Hypothesis, []model.Send, time.Duration, int64, Config) Decision
}

// guardResult carries a background decision and the instant it was
// taken at.
type guardResult struct {
	d   Decision
	now time.Duration
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
	}
	// Rung 0: the compiled table answers without planning at all.
	if d, ok := g.probeCompiled(w, pending); ok {
		g.CompiledHits++
		g.noteSafe(d, now)
		return d
	}
	if g.Degraded {
		return g.fallback(cfg, now)
	}
	if g.Budget <= 0 {
		var d Decision
		if g.Cache != nil {
			d = g.Cache.Decide(w, pending, seq, cfg)
		} else {
			d = w.Decide(pending, seq, cfg)
		}
		g.Live++
		g.noteSafe(d, now)
		return d
	}

	// Drain a straggler that finished since the last wake.
	if g.inflight != nil {
		select {
		case res := <-g.inflight:
			g.inflight = nil
			g.noteSafe(res.d, res.now)
		default:
		}
	}
	if g.inflight != nil {
		// A previous decision is still cooking; stacking another
		// goroutine on a planner that is already too slow only digs the
		// hole deeper.
		g.Overlaps++
		return g.fallback(cfg, now)
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
		ch <- guardResult{d: plan(hyps, pcopy, now, seq, bg), now: now}
	}()

	timer := time.NewTimer(g.Budget)
	select {
	case res := <-ch:
		timer.Stop()
		g.inflight = nil
		g.Live++
		g.noteSafe(res.d, now)
		return res.d
	case <-timer.C:
		g.Timeouts++
		return g.fallback(cfg, now)
	}
}

// probeCompiled is rung 0: the compiled table's answer for this decision
// of wake w, through WakePolicy when the table implements it.
func (g *Guard) probeCompiled(w *Wake, pending []model.Send) (Decision, bool) {
	switch c := g.Compiled.(type) {
	case nil:
		return Decision{}, false
	case WakePolicy:
		return c.ProbeWake(w, pending)
	default:
		return c.Probe(w.sup, pending, w.now)
	}
}

// LastSafe reports the remembered safe pacing interval (rung 2's replay
// delta), zero when no decision has slept yet. A checkpoint carries it,
// so a warm-restored member falls back to the same interval the original
// would (lifecycle.RestoreSender).
func (g *Guard) LastSafe() time.Duration { return g.lastSafeDelta }

// RestoreLastSafe reinstates a checkpointed safe pacing interval;
// non-positive deltas are ignored (they could never have been recorded).
func (g *Guard) RestoreLastSafe(delta time.Duration) {
	if delta > 0 {
		g.lastSafeDelta = delta
	}
}

// fallback walks rungs 2 and 3 of the ladder.
func (g *Guard) fallback(cfg Config, now time.Duration) Decision {
	g.SafeFallbacks++
	grid := cfg.Grid
	if grid <= 0 {
		grid = DefaultConfig().Grid
	}
	wake := now + grid
	if g.lastSafeDelta > 0 {
		wake = now + g.lastSafeDelta
	}
	return Decision{SendNow: false, WakeAt: wake}
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
	}
}
