package planner

import (
	"fmt"
	"runtime"
	"slices"
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

// TestGuardLastSafeAction: rung 2 replays the most recent non-send
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

// TestGuardStragglerSetsOnlyLastSafe: a Decide that blows its budget
// keeps cooking, and a call that arrives meanwhile does not stack a
// second one. The drained straggler sets the last safe interval and
// nothing else: the wired cache stays empty, and no live decision is
// counted.
func TestGuardStragglerSetsOnlyLastSafe(t *testing.T) {
	sup := guardSupport()
	pc := NewPolicyCache()
	g, gate := stalledGuard(t, pc)
	const slept = 700 * time.Millisecond
	g.plan = func(_ []belief.Hypothesis, _ []model.Send, now time.Duration, _ int64, _ Config) Decision {
		<-gate
		return Decision{WakeAt: now + slept}
	}
	now := 2 * time.Second

	g.Decide(NewWake(sup, now), nil, 0, Config{}) // planner parked: budget expires
	g.Decide(NewWake(sup, now), nil, 0, Config{}) // straggler still cooking
	if g.Timeouts != 1 || g.Overlaps != 1 || g.SafeFallbacks != 2 || g.LastSafe() != 0 {
		t.Fatalf("before release: timeouts=%d overlaps=%d safeFallbacks=%d lastSafe=%v, want 1/1/2/0",
			g.Timeouts, g.Overlaps, g.SafeFallbacks, g.LastSafe())
	}
	gate <- struct{}{} // let the straggler finish
	for len(g.inflight) == 0 {
		runtime.Gosched()
	}
	// The next call drains the straggler, parks a fresh planner and
	// times out again, now onto the straggler's interval.
	later := 3 * time.Second
	d := g.Decide(NewWake(sup, later), nil, 0, Config{})
	if d.SendNow || d.WakeAt != later+slept || g.LastSafe() != slept {
		t.Fatalf("after drain: %+v, lastSafe=%v; want a sleep to %v", d, g.LastSafe(), later+slept)
	}
	if g.Timeouts != 2 || g.SafeFallbacks != 3 || g.Live != 0 || pc.Len() != 0 || pc.Hits+pc.Misses != 0 {
		t.Fatalf("after drain: timeouts=%d safeFallbacks=%d live=%d cache len=%d lookups=%d, want 2/3/0/0/0",
			g.Timeouts, g.SafeFallbacks, g.Live, pc.Len(), pc.Hits+pc.Misses)
	}
}

// TestGuardFallbackSkipsTheCache: a timed-out or degraded decision falls
// to the last safe rung even when the wired cache holds this very
// situation: it counts one SafeFallbacks and reads nothing from the
// cache.
func TestGuardFallbackSkipsTheCache(t *testing.T) {
	sup := guardSupport()
	now := 2 * time.Second
	for _, degraded := range []bool{false, true} {
		pc := NewPolicyCache()
		pc.Decide(NewWake(sup, now), nil, 0, Config{})
		var g *Guard
		if degraded {
			g = NewGuard(0, pc)
			g.Degraded = true
		} else {
			g, _ = stalledGuard(t, pc)
		}
		d := g.Decide(NewWake(sup, now), nil, 0, Config{})
		if d.SendNow || d.WakeAt != now+DefaultConfig().Grid {
			t.Fatalf("degraded=%v: %+v, want a sleep of one grid", degraded, d)
		}
		if g.SafeFallbacks != 1 || g.Live != 0 || pc.Hits != 0 || pc.Misses != 1 {
			t.Fatalf("degraded=%v: safeFallbacks=%d live=%d cache hits=%d misses=%d, want 1/0/0/1",
				degraded, g.SafeFallbacks, g.Live, pc.Hits, pc.Misses)
		}
	}
}

// fakeCompiled is a test CompiledPolicy: a fixed decision (rebased to
// now) when hit is true, and a count of probes.
type fakeCompiled struct {
	hit    bool
	delta  time.Duration
	send   bool
	probes int
}

func (f *fakeCompiled) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (Decision, bool) {
	f.probes++
	if !f.hit {
		return Decision{}, false
	}
	return Decision{SendNow: f.send, WakeAt: now + f.delta, Support: len(sup)}, true
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
	}
}

// TestGuardCompiledMissFallsToLive: a table miss falls through to live
// planning, with the decision the unguarded planner takes.
func TestGuardCompiledMissFallsToLive(t *testing.T) {
	sup := guardSupport()
	fc := &fakeCompiled{hit: false}
	g := NewGuard(0, nil)
	g.Compiled = fc
	got := g.Decide(NewWake(sup, 0), nil, 0, Config{})
	want := Decide(sup, nil, 0, 0, Config{})
	if got.SendNow != want.SendNow || got.WakeAt != want.WakeAt || got.Gain != want.Gain {
		t.Fatalf("miss path decision %+v != live %+v", got, want)
	}
	if fc.probes != 1 {
		t.Fatalf("probes=%d, want 1", fc.probes)
	}
	if g.Live != 1 || g.CompiledHits != 0 {
		t.Fatalf("counters live=%d compiled=%d, want 1/0", g.Live, g.CompiledHits)
	}
}

// TestGuardDegradedServesWithoutLivePlanning: degraded mode pins
// Decide to the degradation ladder — compiled table when wired, blind
// fallback on a miss — and never consults the live planner.
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

	// Compiled miss: a blind rung, still no live planning.
	fc.hit = false
	if d = g.Decide(NewWake(sup, now), nil, 0, Config{}); d.SendNow {
		t.Fatal("degraded blind fallback must not send")
	}
	if g.DegradedServed != 2 || g.Live != 0 || g.SafeFallbacks != 1 {
		t.Fatalf("counters degraded=%d live=%d safe=%d, want 2/0/1",
			g.DegradedServed, g.Live, g.SafeFallbacks)
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

// wakeFake is a test WakePolicy: fakeCompiled's answers, keyed by the
// wake, with the wakes it was handed for probes. Its promoted Probe
// counts into the embedded fakeCompiled.
type wakeFake struct {
	fakeCompiled
	probed []*Wake
}

func (f *wakeFake) ProbeWake(w *Wake, pending []model.Send) (Decision, bool) {
	f.probed = append(f.probed, w)
	if !f.hit {
		return Decision{}, false
	}
	return Decision{SendNow: f.send, WakeAt: w.now + f.delta, Support: len(w.sup)}, true
}

// probeCounter has the shape of a tracing decorator: it embeds a
// CompiledPolicy and overrides Probe alone, so it is no WakePolicy even
// when the policy it wraps is one.
type probeCounter struct {
	CompiledPolicy
	probes int
}

func (p *probeCounter) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (Decision, bool) {
	p.probes++
	return p.CompiledPolicy.Probe(sup, pending, now)
}

// TestGuardProbesCompiledWithTheWake: rung 0 goes through WakePolicy
// when the compiled policy implements it — the same *Wake on every
// decision of a wake, Probe never — and through Probe otherwise, so a
// plain policy and a decorator that overrides Probe see every probe. On
// the normal and the Degraded path, on table hits and on misses.
func TestGuardProbesCompiledWithTheWake(t *testing.T) {
	sup := guardSupport()
	const perWake = 3
	for _, degraded := range []bool{false, true} {
		for _, hit := range []bool{true, false} {
			t.Run(fmt.Sprintf("degraded=%v,hit=%v", degraded, hit), func(t *testing.T) {
				wf := &wakeFake{fakeCompiled: fakeCompiled{hit: hit, delta: 300 * time.Millisecond}}
				plain := &fakeCompiled{hit: hit, delta: 300 * time.Millisecond}
				inner := &wakeFake{fakeCompiled: *plain}
				dec := &probeCounter{CompiledPolicy: inner}
				var served [3][]Decision
				var wakes [3][]*Wake
				for r, c := range []CompiledPolicy{wf, plain, dec} {
					g := NewGuard(0, nil)
					g.Compiled = c
					g.Degraded = degraded
					for i := 0; i < 2; i++ {
						now := time.Duration(i+1) * time.Second
						w := NewWake(sup, now)
						wakes[r] = append(wakes[r], w)
						var pending []model.Send
						for j := 0; j < perWake; j++ {
							served[r] = append(served[r], g.Decide(w, pending, int64(j), Config{}))
							pending = append(pending, model.Send{Seq: int64(j), At: now, Bits: 12000})
						}
					}
					if hit && g.CompiledHits != int64(len(served[r])) {
						t.Fatalf("policy %d: %d compiled hits of %d decisions", r, g.CompiledHits, len(served[r]))
					}
				}
				n := len(served[0])
				if len(wf.probed) != n || wf.probes != 0 {
					t.Fatalf("WakePolicy: %d ProbeWake, %d Probe over %d decisions", len(wf.probed), wf.probes, n)
				}
				for k := range wf.probed {
					if wf.probed[k] != wakes[0][k/perWake] {
						t.Fatalf("WakePolicy: probe %d handed another wake", k)
					}
				}
				if plain.probes != n {
					t.Fatalf("CompiledPolicy: %d Probe over %d decisions", plain.probes, n)
				}
				if dec.probes != n || inner.probes != n || len(inner.probed) != 0 {
					t.Fatalf("decorator saw %d probes; the WakePolicy inside it %d Probe, %d ProbeWake over %d decisions",
						dec.probes, inner.probes, len(inner.probed), n)
				}
				for r := 1; r < len(served); r++ {
					if !slices.Equal(served[r], served[0]) {
						t.Fatalf("policy %d decided %+v, the WakePolicy %+v", r, served[r], served[0])
					}
				}
			})
		}
	}
}
