package lifecycle

import (
	"runtime"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/packet"
)

// supFleet builds a small fleet with Recover-mode beliefs (so reseed
// counts exist as a health signal) and a supervisor over it.
func supFleet(t *testing.T, sc SupervisorConfig) (*fleet.Fleet, *Supervisor) {
	t.Helper()
	fl := fleet.New(fleet.Config{
		N: 4, Seed: 5,
		BeliefCfg: belief.Config{Recover: true},
	})
	return fl, NewSupervisor(fl, sc)
}

// bumpReseeds fakes a posterior-collapse streak on member flow's
// belief, the signal the supervisor declares failure on.
func bumpReseeds(t *testing.T, fl *fleet.Fleet, flow packet.FlowID, n int) {
	t.Helper()
	b, ok := fl.Members[flow].Sender.Belief.(*belief.Exact)
	if !ok {
		t.Fatalf("member %d belief is %T, want *belief.Exact", flow, fl.Members[flow].Sender.Belief)
	}
	b.Cum.Reseeded += n
}

// TestSupervisorFailsAndRestartsWarm: a member whose belief keeps
// re-seeding is declared failed, torn down gracefully, and — because a
// checkpoint exists — restarted warm with the next generation number.
func TestSupervisorFailsAndRestartsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	fl, sup := supFleet(t, SupervisorConfig{
		Interval:        time.Second,
		CheckpointEvery: 2 * time.Second,
		BackoffBase:     100 * time.Millisecond,
	})
	sup.Start()
	// Let the fleet run (and the supervisor checkpoint) before the
	// injected collapse at t=5s.
	fl.Loop.Schedule(5*time.Second, func() { bumpReseeds(t, fl, 1, 5) })
	fl.Run(30 * time.Second)

	if sup.Stats.Failures != 1 {
		t.Fatalf("failures = %d, want 1", sup.Stats.Failures)
	}
	if sup.Stats.WarmRestarts != 1 || sup.Stats.ColdRestarts != 0 {
		t.Fatalf("restarts cold=%d warm=%d, want 0 warm=1",
			sup.Stats.ColdRestarts, sup.Stats.WarmRestarts)
	}
	m := fl.Members[1]
	if m == nil || m.Gen != 1 {
		t.Fatalf("flow 1 not reoccupied by generation 1: %+v", m)
	}
	var sawFail, sawRestart bool
	for _, e := range sup.Events {
		switch e.Kind {
		case EventFail:
			sawFail = true
		case EventRestart:
			sawRestart = true
			if e.Restart != RestartWarm || e.Flow != 1 || e.Gen != 1 {
				t.Fatalf("restart event = %+v, want warm flow=1 gen=1", e)
			}
		}
	}
	if !sawFail || !sawRestart {
		t.Fatalf("event log missing fail/restart: %+v", sup.Events)
	}
	// The restarted member must keep delivering: fenced counters, not
	// inherited ones.
	if d := fl.Delivered(1); d <= 0 {
		t.Fatalf("restarted member delivered %d packets", d)
	}
}

// TestSupervisorColdWithoutCheckpoints: with checkpointing disabled the
// restart ladder bottoms out at cold-from-prior.
func TestSupervisorColdWithoutCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	fl, sup := supFleet(t, SupervisorConfig{
		Interval:        time.Second,
		CheckpointEvery: -1,
		BackoffBase:     100 * time.Millisecond,
	})
	sup.Start()
	fl.Loop.Schedule(5*time.Second, func() { bumpReseeds(t, fl, 2, 5) })
	fl.Run(20 * time.Second)
	if sup.Stats.ColdRestarts != 1 || sup.Stats.WarmRestarts != 0 {
		t.Fatalf("restarts cold=%d warm=%d, want cold=1 warm=0",
			sup.Stats.ColdRestarts, sup.Stats.WarmRestarts)
	}
	if sup.Stats.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d with checkpointing disabled", sup.Stats.Checkpoints)
	}
}

// TestSupervisorBackoff: a member that fails on every health check is
// restarted with growing, capped delays — the event log's restart
// attempts must be increasing and the flow must still end occupied.
func TestSupervisorBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	fl, sup := supFleet(t, SupervisorConfig{
		Interval:        time.Second,
		CheckpointEvery: -1,
		BackoffBase:     200 * time.Millisecond,
		BackoffCap:      2 * time.Second,
	})
	sup.Start()
	// Sabotage flow 0 forever: every second, if alive, collapse it.
	var sabotage func()
	sabotage = func() {
		if m := fl.Members[0]; m != nil {
			bumpReseeds(t, fl, 0, 5)
		}
		fl.Loop.After(time.Second, sabotage)
	}
	fl.Loop.Schedule(3*time.Second, sabotage)
	fl.Run(30 * time.Second)

	if sup.Stats.Failures < 3 {
		t.Fatalf("failures = %d, want a repeated-failure streak", sup.Stats.Failures)
	}
	attempts := 0
	for _, e := range sup.Events {
		if e.Kind == EventRestart && e.Flow == 0 && e.Attempt > attempts {
			attempts = e.Attempt
		}
	}
	if attempts < 2 {
		t.Fatalf("max restart attempt = %d, want backoff streak >= 2", attempts)
	}
}

// TestSupervisorStopIdempotent: Stop mid-run, Stop again, and a Start
// after Stop must all be safe no-ops; no restarts happen afterwards.
func TestSupervisorStopIdempotent(t *testing.T) {
	fl, sup := supFleet(t, SupervisorConfig{
		Interval: time.Second,
		// Backoff long enough that Stop lands between the failure and
		// the pending restart, which must then be abandoned.
		BackoffBase:     2 * time.Second,
		CheckpointEvery: time.Second,
	})
	sup.Start()
	sup.Start() // double-start: no-op
	fl.Loop.Schedule(3*time.Second, func() { bumpReseeds(t, fl, 1, 5) })
	fl.Loop.Schedule(4*time.Second, func() {
		sup.Stop()
		sup.Stop() // double-stop: no-op
		sup.Start()
	})
	fl.Run(15 * time.Second)
	if fl.Members[1] != nil {
		t.Fatal("flow 1 was restarted after Stop")
	}
	ckpts := sup.Stats.Checkpoints
	if ckpts == 0 {
		t.Fatal("no checkpoints before Stop")
	}
	// Nothing after Stop: the counters are frozen.
	if sup.Stats.Checkpoints != ckpts {
		t.Fatal("checkpointing continued after Stop")
	}
}

// TestDepartRecyclesFlowWithFencedCounters: a departed flow is reused
// by a later arrival as a fresh generation whose delivery counters
// start at zero (never merged with the predecessor's).
func TestDepartRecyclesFlowWithFencedCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	fl, sup := supFleet(t, SupervisorConfig{CheckpointEvery: -1})
	sup.Start()
	var predecessorDelivered int
	fl.Loop.Schedule(20*time.Second, func() {
		predecessorDelivered = fl.Delivered(2)
		sup.Depart(2)
	})
	var admitted *fleet.Member
	fl.Loop.Schedule(40*time.Second, func() {
		admitted = sup.Admit()
	})
	fl.Run(60 * time.Second)

	if predecessorDelivered == 0 {
		t.Fatal("predecessor never delivered; test is vacuous")
	}
	if admitted == nil || admitted.Flow != 2 || admitted.Gen != 1 {
		t.Fatalf("arrival did not recycle flow 2 as gen 1: %+v", admitted)
	}
	// Fenced: the new generation's deliveries exclude the
	// predecessor's, while the raw total includes both.
	if d := fl.Delivered(2); d >= fl.DeliveredTotal(2) {
		t.Fatalf("fenced delivered %d not < total %d", d, fl.DeliveredTotal(2))
	}
	if fl.DeliveredTotal(2) < predecessorDelivered+fl.Delivered(2) {
		t.Fatalf("totals inconsistent: total=%d pred=%d cur=%d",
			fl.DeliveredTotal(2), predecessorDelivered, fl.Delivered(2))
	}
	if sup.Stats.Departures != 1 || sup.Stats.Arrivals != 1 {
		t.Fatalf("departures=%d arrivals=%d, want 1/1", sup.Stats.Departures, sup.Stats.Arrivals)
	}
}

// TestKillVacantFlowIsNoOp: crash-killing an empty slot does nothing.
func TestKillVacantFlowIsNoOp(t *testing.T) {
	fl, sup := supFleet(t, SupervisorConfig{})
	sup.Start()
	fl.Loop.Schedule(time.Second, func() {
		sup.Depart(3)
		sup.Kill(3) // already vacant
		sup.Kill(3)
	})
	fl.Run(5 * time.Second)
	if sup.Stats.Crashes != 0 {
		t.Fatalf("crashes = %d for kills of a vacant flow", sup.Stats.Crashes)
	}
}

// TestAdmissionReplaysBitIdentically: the same seed must produce the
// same churn schedule — identical event logs — across runs.
func TestAdmissionReplaysBitIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second supervised fleet run")
	}
	run := func() []Event {
		fl := fleet.New(fleet.Config{
			N: 8, Seed: 9,
			BeliefCfg: belief.Config{Recover: true},
		})
		sup := NewSupervisor(fl, SupervisorConfig{BackoffBase: 100 * time.Millisecond})
		sup.EnableChurn(ChurnConfig{
			Epoch: 5 * time.Second, DepartProb: 0.1, CrashProb: 0.15,
			ArriveProb: 0.6, MinLive: 2, MaxLive: 8,
		}, chaos.Config{Seed: 9})
		sup.Start()
		sup.Start()
		fl.Run(60 * time.Second)
		return sup.Events
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no churn events; schedule too quiet to test")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestAdmissionRespectsMaxLive: a crashed member's slot is reserved
// for its supervised restart, so arrivals must not refill it — the
// live population never exceeds MaxLive even while restarts, crashes,
// and arrivals interleave. (Regression: crashed slots used to be
// counted as open, and restarts then pushed the population past the
// cap.)
func TestAdmissionRespectsMaxLive(t *testing.T) {
	fl := fleet.New(fleet.Config{
		N: 8, Seed: 1,
		BeliefCfg: belief.Config{Recover: true},
	})
	// A long backoff keeps crashed slots reserved across several
	// epochs, the window the old accounting double-filled.
	sup := NewSupervisor(fl, SupervisorConfig{BackoffBase: 3 * time.Second})
	sup.EnableChurn(ChurnConfig{
		Epoch: 5 * time.Second, DepartProb: 0.2, CrashProb: 0.3,
		ArriveProb: 1, MinLive: 1, MaxLive: 8,
	}, chaos.Config{Seed: 4})
	sup.Start()
	sup.Start()
	maxSeen := 0
	var poll func()
	poll = func() {
		if n := fl.Live(); n > maxSeen {
			maxSeen = n
		}
		fl.Loop.After(time.Second, poll)
	}
	fl.Loop.Schedule(time.Second, poll)
	fl.Run(60 * time.Second)

	if maxSeen > 8 {
		t.Errorf("live population peaked at %d, cap is 8", maxSeen)
	}
	if sup.Stats.Crashes == 0 || sup.Stats.Arrivals == 0 {
		t.Fatalf("crashes=%d arrivals=%d; schedule too quiet, test is vacuous",
			sup.Stats.Crashes, sup.Stats.Arrivals)
	}
}

// TestLifecycleNoGoroutineLeak: the whole lifecycle stack — fleet,
// supervisor, admission, restarts, mid-run teardown — lives on the
// DES loop, so no goroutine outlives the run.
func TestLifecycleNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		fl := fleet.New(fleet.Config{
			N: 8, Seed: 3,
			BeliefCfg: belief.Config{Recover: true},
		})
		sup := NewSupervisor(fl, SupervisorConfig{BackoffBase: 100 * time.Millisecond})
		sup.EnableChurn(ChurnConfig{
			Epoch: 5 * time.Second, DepartProb: 0.1, CrashProb: 0.15,
			ArriveProb: 0.6, MinLive: 2, MaxLive: 8,
		}, chaos.Config{Seed: 3})
		sup.Start()
		sup.Start()
		fl.Run(40 * time.Second)
		// Teardown mid-"session": stop twice each, in both orders.
		sup.Stop()
		sup.Stop()
		sup.Stop()
		sup.Stop()
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
