package planner

import (
	"runtime"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
)

// guardSupport builds a mid-sized uniform support, small enough to keep
// the tests fast.
func guardSupport() []belief.Hypothesis {
	states, w := model.Prior{
		LinkRate:      model.PriorRange{Lo: 10000, Hi: 16000, N: 4},
		CrossFrac:     model.PriorRange{Lo: 0.4, Hi: 0.7, N: 2},
		BufferCapBits: model.PriorRange{Lo: 72000, Hi: 108000, N: 2},
		FullnessSteps: 2,
		MeanSwitch:    100 * time.Second,
	}.Enumerate()
	sup := make([]belief.Hypothesis, len(states))
	for i, s := range states {
		sup[i] = belief.Hypothesis{S: s, W: w}
	}
	return sup
}

// TestGuardLiveWithinBudget: with a generous budget the guard returns
// exactly what the live planner would.
func TestGuardLiveWithinBudget(t *testing.T) {
	sup := guardSupport()
	cfg := Config{}
	g := NewGuard(30*time.Second, nil)
	got := g.Decide(NewWake(sup, 0), nil, 0, cfg)
	want := Decide(sup, nil, 0, 0, cfg)
	if got.SendNow != want.SendNow || got.WakeAt != want.WakeAt || got.Gain != want.Gain {
		t.Fatalf("guarded decision %+v != live decision %+v", got, want)
	}
	if g.Live != 1 || g.Timeouts != 0 {
		t.Fatalf("counters: live=%d timeouts=%d, want 1/0", g.Live, g.Timeouts)
	}
}

// stalledGuard returns a Guard whose background planner takes one token
// from gate before it plans, so a budget expires exactly when the test
// withholds the token — never because a timer happened to beat a fast
// Decide to the select. Closing gate at cleanup releases any planner
// still parked.
func stalledGuard(t *testing.T, cache *PolicyCache) (*Guard, chan struct{}) {
	gate := make(chan struct{})
	g := NewGuard(time.Millisecond, cache)
	g.plan = func(sup []belief.Hypothesis, pending []model.Send, now time.Duration, seq int64, cfg Config) Decision {
		<-gate
		return Decide(sup, pending, now, seq, cfg)
	}
	t.Cleanup(func() { close(gate) })
	return g, gate
}

// TestGuardTimeoutFallsToSafe: an expired budget with no cache and no
// remembered action degrades to the bottom rung — no send, re-decide in
// one grid step.
func TestGuardTimeoutFallsToSafe(t *testing.T) {
	sup := guardSupport()
	g, _ := stalledGuard(t, nil)
	now := 3 * time.Second
	d := g.Decide(NewWake(sup, now), nil, 0, Config{})
	if d.SendNow {
		t.Fatal("blind fallback must not send")
	}
	if want := now + DefaultConfig().Grid; d.WakeAt != want {
		t.Fatalf("fallback wake %v, want %v", d.WakeAt, want)
	}
	if g.Timeouts != 1 || g.SafeFallbacks != 1 {
		t.Fatalf("counters: timeouts=%d safeFallbacks=%d, want 1/1", g.Timeouts, g.SafeFallbacks)
	}
}

// TestGuardLastSafeAction: rung 3 replays the most recent non-send
// pacing interval rather than the raw grid.
func TestGuardLastSafeAction(t *testing.T) {
	g, _ := stalledGuard(t, nil)
	g.noteSafe(Decision{WakeAt: 1300 * time.Millisecond}, time.Second)
	now := 10 * time.Second
	d := g.Decide(NewWake(guardSupport(), now), nil, 0, Config{})
	if d.SendNow {
		t.Fatal("fallback must not send")
	}
	if want := now + 300*time.Millisecond; d.WakeAt != want {
		t.Fatalf("fallback wake %v, want %v (last safe delta rebased)", d.WakeAt, want)
	}
}

// TestGuardCacheSeededByStraggler: a Decide that blows its budget keeps
// cooking; a call that arrives meanwhile does not stack a second one;
// the drained result seeds the cache, and a later timeout on the same
// situation is served from there.
func TestGuardCacheSeededByStraggler(t *testing.T) {
	sup := guardSupport()
	g, gate := stalledGuard(t, NewPolicyCache(0))
	now := 2 * time.Second

	g.Decide(NewWake(sup, now), nil, 0, Config{}) // planner parked: budget expires
	g.Decide(NewWake(sup, now), nil, 0, Config{}) // straggler still cooking
	if g.Timeouts != 1 || g.Overlaps != 1 || g.SafeFallbacks != 2 || g.CacheHits != 0 {
		t.Fatalf("counters before release: timeouts=%d overlaps=%d safeFallbacks=%d cacheHits=%d, want 1/1/2/0",
			g.Timeouts, g.Overlaps, g.SafeFallbacks, g.CacheHits)
	}
	gate <- struct{}{} // let the straggler finish
	for len(g.inflight) == 0 {
		runtime.Gosched()
	}
	// The next call drains the straggler into the cache, parks a fresh
	// planner, times out again — and this time the cache answers. (A
	// cache-hit fallback may legitimately send: it is a real computed
	// decision; only the blind rungs below it never do.)
	g.Decide(NewWake(sup, now), nil, 0, Config{})
	if g.Timeouts != 2 || g.CacheHits != 1 {
		t.Fatalf("counters after drain: timeouts=%d cacheHits=%d, want 2/1", g.Timeouts, g.CacheHits)
	}
	// The cached decision must match what the live planner computes.
	cached, ok := g.Cache.Lookup(NewWake(sup, now), nil)
	if !ok {
		t.Fatal("lookup missed after a recorded hit")
	}
	want := Decide(sup, nil, now, 0, Config{})
	if cached.SendNow != want.SendNow || cached.WakeAt != want.WakeAt {
		t.Fatalf("cached %+v != live %+v", cached, want)
	}
}

// fakeCompiled is a test CompiledPolicy: a fixed decision (rebased to
// now) when hit is true, and a log of recorded misses.
type fakeCompiled struct {
	hit    bool
	delta  time.Duration
	send   bool
	probes int
	misses []Decision
}

func (f *fakeCompiled) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (Decision, bool) {
	f.probes++
	if !f.hit {
		return Decision{}, false
	}
	return Decision{SendNow: f.send, WakeAt: now + f.delta, Support: len(sup)}, true
}

func (f *fakeCompiled) RecordMiss(sup []belief.Hypothesis, pending []model.Send, now time.Duration, d Decision) {
	f.misses = append(f.misses, d)
}

// TestGuardCompiledRungServes: a compiled-table hit answers without
// touching the live planner, on both the synchronous and the budgeted
// path.
func TestGuardCompiledRungServes(t *testing.T) {
	sup := guardSupport()
	for _, budget := range []time.Duration{0, 30 * time.Second} {
		fc := &fakeCompiled{hit: true, delta: 250 * time.Millisecond}
		g := NewGuard(budget, nil)
		g.Compiled = fc
		now := 5 * time.Second
		d := g.Decide(NewWake(sup, now), nil, 0, Config{})
		if d.SendNow || d.WakeAt != now+250*time.Millisecond {
			t.Fatalf("budget=%v: compiled decision not served: %+v", budget, d)
		}
		if g.CompiledHits != 1 || g.Live != 0 {
			t.Fatalf("budget=%v: counters compiled=%d live=%d, want 1/0", budget, g.CompiledHits, g.Live)
		}
		if len(fc.misses) != 0 {
			t.Fatalf("budget=%v: hit recorded as miss", budget)
		}
	}
}

// TestGuardCompiledMissFallsToLiveAndRecords: a table miss falls
// through to live planning (identical decision to the unguarded
// planner) and the live result is fed back via RecordMiss.
func TestGuardCompiledMissFallsToLiveAndRecords(t *testing.T) {
	sup := guardSupport()
	fc := &fakeCompiled{hit: false}
	g := NewGuard(0, nil)
	g.Compiled = fc
	got := g.Decide(NewWake(sup, 0), nil, 0, Config{})
	want := Decide(sup, nil, 0, 0, Config{})
	if got.SendNow != want.SendNow || got.WakeAt != want.WakeAt || got.Gain != want.Gain {
		t.Fatalf("miss path decision %+v != live %+v", got, want)
	}
	if fc.probes != 1 || len(fc.misses) != 1 {
		t.Fatalf("probes=%d misses=%d, want 1/1", fc.probes, len(fc.misses))
	}
	if m := fc.misses[0]; m.SendNow != want.SendNow || m.WakeAt != want.WakeAt {
		t.Fatalf("recorded miss %+v != served decision %+v", m, want)
	}
	if g.Live != 1 || g.CompiledHits != 0 {
		t.Fatalf("counters live=%d compiled=%d, want 1/0", g.Live, g.CompiledHits)
	}
}

// TestGuardDegradedServesWithoutLivePlanning: degraded mode pins
// Decide to the degradation ladder — compiled table when wired, blind
// fallback on a miss — and never consults the live planner. Degraded
// serving must not advance ConsecutiveOverruns: the planner is being
// administratively bypassed, not missing deadlines, and a health sweep
// that read overruns here would fail exactly the members the watchdog
// is protecting.
func TestGuardDegradedServesWithoutLivePlanning(t *testing.T) {
	sup := guardSupport()
	fc := &fakeCompiled{hit: true, delta: 200 * time.Millisecond}
	g := NewGuard(30*time.Second, nil)
	g.Compiled = fc
	g.Degraded = true
	now := 4 * time.Second
	d := g.Decide(NewWake(sup, now), nil, 0, Config{})
	if d.WakeAt != now+200*time.Millisecond {
		t.Fatalf("degraded compiled decision not served: %+v", d)
	}
	if g.DegradedServed != 1 || g.CompiledHits != 1 || g.Live != 0 {
		t.Fatalf("counters degraded=%d compiled=%d live=%d, want 1/1/0",
			g.DegradedServed, g.CompiledHits, g.Live)
	}

	// Compiled miss with no cache and no remembered action: bottom
	// rung, still no live planning, overrun counter untouched.
	fc.hit = false
	if d = g.Decide(NewWake(sup, now), nil, 0, Config{}); d.SendNow {
		t.Fatal("degraded blind fallback must not send")
	}
	if g.DegradedServed != 2 || g.Live != 0 || g.SafeFallbacks != 1 {
		t.Fatalf("counters degraded=%d live=%d safe=%d, want 2/0/1",
			g.DegradedServed, g.Live, g.SafeFallbacks)
	}
	if g.ConsecutiveOverruns != 0 {
		t.Fatalf("degraded serving advanced ConsecutiveOverruns to %d", g.ConsecutiveOverruns)
	}

	// Released: the guard plans live again and stops counting.
	g.Degraded = false
	g.Decide(NewWake(sup, now), nil, 0, Config{})
	if g.Live != 1 || g.DegradedServed != 2 {
		t.Fatalf("released guard live=%d degraded=%d, want 1/2", g.Live, g.DegradedServed)
	}
}

// TestGuardLatencySampling: RecordLatency captures one sample per
// Decide on the serving path.
func TestGuardLatencySampling(t *testing.T) {
	fc := &fakeCompiled{hit: true, delta: 100 * time.Millisecond}
	g := NewGuard(0, nil)
	g.Compiled = fc
	g.RecordLatency = true
	sup := guardSupport()
	for i := 0; i < 3; i++ {
		g.Decide(NewWake(sup, time.Duration(i)*time.Second), nil, 0, Config{})
	}
	if len(g.Latencies) != 3 {
		t.Fatalf("latency samples = %d, want 3", len(g.Latencies))
	}
	for _, ns := range g.Latencies {
		if ns < 0 {
			t.Fatalf("negative latency sample %d", ns)
		}
	}
}
