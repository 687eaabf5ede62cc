package shard

// These tests pin on the barrier-aligned lifecycle what
// internal/lifecycle's supervisor tests pin on the single-loop one:
// health failure → restart, backoff, flow recycling fences, the
// admission cap. Lifecycle actions execute at coupling-window barriers,
// so a test injects one by running to an instant, acting, and running
// on: the action lands on the barrier at that instant, ahead of the
// barrier's own scheduled work.

import (
	"runtime"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
)

// supFleet builds a small two-shard fleet with Recover-mode beliefs (so
// reseed counts exist as a health signal) under the health sweep and
// restart machinery alone: the churn schedule's first epoch lies beyond
// every test's run (an all-zero schedule would take the default
// probabilities), so nothing arrives, departs or crashes unless the test
// says so.
// ckptEvery > 0 arms barrier checkpoints.
func supFleet(t *testing.T, sc lifecycle.SupervisorConfig, ckptEvery time.Duration) *Fleet {
	t.Helper()
	sf := New(Config{
		Fleet:  fleet.Config{N: 4, Seed: 5, BeliefCfg: belief.Config{Recover: true}},
		Shards: 2,
	})
	if ckptEvery > 0 {
		sf.EnableCheckpoints(CheckpointConfig{Every: ckptEvery})
	}
	sf.EnableChurn(lifecycle.ChurnConfig{Epoch: time.Hour}, sc, chaos.Config{Seed: 5})
	return sf
}

// bumpReseeds fakes a posterior-collapse streak on the flow's belief,
// the signal the health sweep declares failure on.
func bumpReseeds(t *testing.T, sf *Fleet, flow packet.FlowID, n int) {
	t.Helper()
	b, ok := sf.MemberAt(flow).Sender.Belief.(*belief.Exact)
	if !ok {
		t.Fatalf("member %d belief is %T, want *belief.Exact", flow, sf.MemberAt(flow).Sender.Belief)
	}
	b.Cum.Reseeded += n
}

// TestBarrierFailsAndRestartsWarm: a member whose belief keeps
// re-seeding is declared failed, torn down gracefully, and — because a
// checkpoint exists — restarted warm with the next generation number.
func TestBarrierFailsAndRestartsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	sf := supFleet(t, lifecycle.SupervisorConfig{
		Interval:    time.Second,
		BackoffBase: 100 * time.Millisecond,
	}, 2*time.Second)
	// Let the fleet run (and the checkpoint sweep reach flow 1) before
	// the injected collapse at t=5s.
	sf.Run(5 * time.Second)
	bumpReseeds(t, sf, 1, 5)
	sf.Run(30 * time.Second)

	if sf.Stats.Failures != 1 {
		t.Fatalf("failures = %d, want 1", sf.Stats.Failures)
	}
	if sf.Stats.WarmRestarts != 1 || sf.Stats.ColdRestarts != 0 {
		t.Fatalf("restarts cold=%d warm=%d, want 0 warm=1",
			sf.Stats.ColdRestarts, sf.Stats.WarmRestarts)
	}
	m := sf.MemberAt(1)
	if m == nil || m.Gen != 1 {
		t.Fatalf("flow 1 not reoccupied by generation 1: %+v", m)
	}
	var sawFail, sawRestart bool
	for _, e := range sf.Events {
		switch e.Kind {
		case lifecycle.EventFail:
			sawFail = true
		case lifecycle.EventRestart:
			sawRestart = true
			if e.Restart != lifecycle.RestartWarm || e.Flow != 1 || e.Gen != 1 {
				t.Fatalf("restart event = %+v, want warm flow=1 gen=1", e)
			}
		}
	}
	if !sawFail || !sawRestart {
		t.Fatalf("event log missing fail/restart: %+v", sf.Events)
	}
	// One record per generation: four initial members plus the restart.
	last := sf.Records[len(sf.Records)-1]
	if len(sf.Records) != 5 || last.M != m || last.Cause != lifecycle.CauseRestart || last.Kind != lifecycle.RestartWarm {
		t.Fatalf("records = %d, last %+v; want 5 ending in flow 1's warm restart", len(sf.Records), last)
	}
	// The restarted member must keep delivering: fenced counters, not
	// inherited ones.
	if d := sf.Delivered(1); d <= 0 {
		t.Fatalf("restarted member delivered %d packets", d)
	}
}

// TestBarrierColdWithoutCheckpoints: with checkpointing disabled the
// restart ladder bottoms out at cold-from-prior.
func TestBarrierColdWithoutCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	sf := supFleet(t, lifecycle.SupervisorConfig{
		Interval:    time.Second,
		BackoffBase: 100 * time.Millisecond,
	}, 0)
	sf.Run(5 * time.Second)
	bumpReseeds(t, sf, 2, 5)
	sf.Run(20 * time.Second)
	if sf.Stats.ColdRestarts != 1 || sf.Stats.WarmRestarts != 0 {
		t.Fatalf("restarts cold=%d warm=%d, want cold=1 warm=0",
			sf.Stats.ColdRestarts, sf.Stats.WarmRestarts)
	}
	if sf.Stats.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d with checkpointing disabled", sf.Stats.Checkpoints)
	}
}

// TestBarrierBackoff: a member that fails on every health check is
// restarted with delays that double up to the cap, and two healthy
// sweeps reset the streak.
func TestBarrierBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	const (
		interval = time.Second
		base     = 200 * time.Millisecond
		ceiling  = 2 * time.Second
	)
	sf := supFleet(t, lifecycle.SupervisorConfig{
		Interval: interval, BackoffBase: base, BackoffCap: ceiling,
	}, 0)
	// Sabotage flow 0 every second while it is alive: each generation
	// collapses before its second healthy sweep.
	sabotage := func(from, to time.Duration) {
		for at := from; at <= to; at += time.Second {
			sf.Run(at)
			if sf.MemberAt(0) != nil {
				bumpReseeds(t, sf, 0, 5)
			}
		}
	}
	sabotage(3*time.Second, 25*time.Second)

	var failAt time.Duration
	streak := 0
	for _, e := range sf.Events {
		if e.Flow != 0 {
			continue
		}
		switch e.Kind {
		case lifecycle.EventFail:
			failAt = e.At
		case lifecycle.EventRestart:
			streak++
			if e.Attempt != streak {
				t.Fatalf("restart %d carries attempt %d", streak, e.Attempt)
			}
			want := base << (streak - 1)
			if want > ceiling {
				want = ceiling
			}
			// The backoff is a floor: barrier snapping and the drain
			// wait only add to it, by well under a second here.
			if wait := e.At - failAt; wait < want || wait >= want+time.Second {
				t.Fatalf("restart %d waited %v after its failure, want %v (+ <1s of drain)", streak, wait, want)
			}
		}
	}
	if want := base << (streak - 1); streak < 5 || want < ceiling {
		t.Fatalf("streak of %d restarts never reached the %v cap", streak, ceiling)
	}

	// Left alone for more than two sweeps the flow has recovered: its
	// next failure starts the backoff from scratch.
	sf.Run(30 * time.Second)
	events := len(sf.Events)
	sabotage(30*time.Second, 33*time.Second)
	for _, e := range sf.Events[events:] {
		if e.Kind == lifecycle.EventRestart && e.Flow == 0 {
			if e.Attempt != 1 {
				t.Fatalf("restart after recovery carries attempt %d, want 1", e.Attempt)
			}
			return
		}
	}
	t.Fatal("no restart after the recovered flow failed again")
}

// TestBarrierDepartRecyclesFlowWithFencedCounters: a departure discards the
// flow's checkpoint, and the flow is reused by a later arrival as a
// fresh cold generation whose counters start at zero (never merged
// with the predecessor's).
func TestBarrierDepartRecyclesFlowWithFencedCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	sf := supFleet(t, lifecycle.SupervisorConfig{}, 2*time.Second)
	sf.Run(20 * time.Second)
	predecessorDelivered := sf.Delivered(2)
	if predecessorDelivered == 0 {
		t.Fatal("predecessor never delivered; test is vacuous")
	}
	if sf.LatestCheckpoint(2) == nil {
		t.Fatal("flow 2 has no checkpoint to discard; test is vacuous")
	}
	sf.Depart(2)
	if sf.LatestCheckpoint(2) != nil {
		t.Fatal("departure kept the flow's checkpoint: a later arrival could inherit its belief")
	}
	sf.Run(40 * time.Second)
	admitted := sf.Admit()
	if admitted.Flow != 2 || admitted.Gen != 1 {
		t.Fatalf("arrival did not recycle flow 2 as gen 1: flow %d gen %d", admitted.Flow, admitted.Gen)
	}
	if rec := sf.Records[len(sf.Records)-1]; rec.M != admitted || rec.Cause != lifecycle.CauseArrival || rec.Kind != lifecycle.RestartCold {
		t.Fatalf("arrival's record = %+v, want a cold arrival", rec)
	}
	if d, dr := sf.Delivered(2), sf.FlowDrops(2); d != 0 || dr != 0 {
		t.Fatalf("successor starts at delivered=%d drops=%d, want 0/0", d, dr)
	}
	sf.Run(60 * time.Second)

	// Fenced: the new generation's deliveries exclude the
	// predecessor's, while the raw total includes both.
	if d := sf.Delivered(2); d >= sf.DeliveredTotal(2) {
		t.Fatalf("fenced delivered %d not < total %d", d, sf.DeliveredTotal(2))
	}
	if sf.DeliveredTotal(2) < predecessorDelivered+sf.Delivered(2) {
		t.Fatalf("totals inconsistent: total=%d pred=%d cur=%d",
			sf.DeliveredTotal(2), predecessorDelivered, sf.Delivered(2))
	}
	if sf.Stats.Departures != 1 || sf.Stats.Arrivals != 1 {
		t.Fatalf("departures=%d arrivals=%d, want 1/1", sf.Stats.Departures, sf.Stats.Arrivals)
	}
}

// TestBarrierKillVacantFlowIsNoOp: crash-killing an empty slot does nothing.
func TestBarrierKillVacantFlowIsNoOp(t *testing.T) {
	sf := supFleet(t, lifecycle.SupervisorConfig{}, 0)
	sf.Run(time.Second)
	sf.Depart(3)
	sf.Kill(3) // already vacant
	sf.Kill(3)
	sf.Run(5 * time.Second)
	if sf.Stats.Crashes != 0 {
		t.Fatalf("crashes = %d for kills of a vacant flow", sf.Stats.Crashes)
	}
	if sf.MemberAt(3) != nil {
		t.Fatal("a kill of a vacant flow scheduled a restart")
	}
}

// churnFleet is an N=8 fleet under a busy churn schedule.
func churnFleet(shards int, seed int64, sc lifecycle.SupervisorConfig, cc lifecycle.ChurnConfig) *Fleet {
	sf := New(Config{
		Fleet:  fleet.Config{N: 8, Seed: seed, BeliefCfg: belief.Config{Recover: true}},
		Shards: shards,
	})
	sf.EnableChurn(cc, sc, chaos.Config{Seed: seed})
	return sf
}

// TestBarrierAdmissionRespectsMaxLive: a crashed member's slot is reserved
// for its restart, so arrivals must not refill it — the live
// population never exceeds MaxLive even while restarts, crashes, and
// arrivals interleave. (Regression: crashed slots used to be counted
// as open, and restarts then pushed the population past the cap.)
func TestBarrierAdmissionRespectsMaxLive(t *testing.T) {
	// A long backoff keeps crashed slots reserved across several
	// epochs, the window the old accounting double-filled.
	sf := churnFleet(2, 4, lifecycle.SupervisorConfig{BackoffBase: 3 * time.Second}, lifecycle.ChurnConfig{
		Epoch: 5 * time.Second, DepartProb: 0.2, CrashProb: 0.3,
		ArriveProb: 1, MinLive: 1, MaxLive: 8,
	})
	maxSeen := 0
	// Membership only changes at barriers; sample after every window.
	for at := sf.Delta; at <= 60*time.Second; at += sf.Delta {
		sf.Run(at)
		if n := sf.Live(); n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen > 8 {
		t.Errorf("live population peaked at %d, cap is 8", maxSeen)
	}
	if sf.Stats.Crashes == 0 || sf.Stats.Arrivals == 0 {
		t.Fatalf("crashes=%d arrivals=%d; schedule too quiet, test is vacuous",
			sf.Stats.Crashes, sf.Stats.Arrivals)
	}
}

// TestBarrierNoGoroutineLeak: the whole lifecycle stack — four shard
// goroutines per window, restarts, mid-run teardown — must wind down
// with the run.
func TestBarrierNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		sf := churnFleet(4, 3, lifecycle.SupervisorConfig{BackoffBase: 100 * time.Millisecond}, lifecycle.ChurnConfig{
			Epoch: 5 * time.Second, DepartProb: 0.1, CrashProb: 0.15,
			ArriveProb: 0.6, MinLive: 2, MaxLive: 8,
		})
		sf.Run(40 * time.Second)
		if sf.Stats.Crashes+sf.Stats.Departures == 0 {
			t.Fatal("schedule produced no churn; leak check is vacuous")
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want <= %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
