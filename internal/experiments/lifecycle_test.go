package experiments

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
	"modelcc/internal/shard"
)

// lifecycleCase is one drawn lifecycle configuration. collapse is the
// chance, per 250 ms step, that one live member's belief is made to
// collapse, so health failures are drawn too.
type lifecycleCase struct {
	n                     int
	seed                  int64
	epoch, backoff        time.Duration
	depart, crash, arrive float64
	minLive               int
	checkpoints           bool
	collapse              float64
}

func (c lifecycleCase) String() string {
	return fmt.Sprintf("n=%d/seed=%d/epoch=%v/d=%.2f/c=%.2f/a=%.2f/min=%d/backoff=%v/ckpt=%v/collapse=%.2f",
		c.n, c.seed, c.epoch, c.depart, c.crash, c.arrive, c.minLive, c.backoff, c.checkpoints, c.collapse)
}

func drawLifecycleCase(rng *rand.Rand) lifecycleCase {
	prob := func(hi float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return hi * rng.Float64()
	}
	c := lifecycleCase{
		n:           2 + rng.Intn(7),
		seed:        rng.Int63n(1 << 20),
		epoch:       time.Duration(2+rng.Intn(4)) * time.Second,
		depart:      prob(0.3),
		crash:       prob(0.4),
		arrive:      prob(1),
		backoff:     time.Duration(100+rng.Intn(1900)) * time.Millisecond,
		checkpoints: rng.Intn(2) == 0,
	}
	c.minLive = 1 + rng.Intn(c.n)
	if rng.Intn(2) == 0 {
		c.collapse = 0.1 * rng.Float64()
	}
	return c
}

// run drives the case on the single loop (shards 0) or the barrier
// runtime (shards 1) in 250 ms steps, collapsing a drawn member now and
// then and checking the population cap after every step, and returns
// the runtime and its controller.
func (c lifecycleCase) run(t *testing.T, shards int) (lifecycle.Runtime, *lifecycle.Controller) {
	const (
		dur  = 30 * time.Second
		step = 250 * time.Millisecond
	)
	fc := fleet.Config{N: c.n, Seed: c.seed, BeliefCfg: belief.Config{Recover: true}}
	cc := lifecycle.ChurnConfig{Epoch: c.epoch, DepartProb: c.depart, CrashProb: c.crash, ArriveProb: c.arrive, MinLive: c.minLive}
	sc := lifecycle.SupervisorConfig{BackoffBase: c.backoff, CheckpointEvery: -1}
	if c.checkpoints {
		sc.CheckpointEvery = 2 * time.Second
	}
	ch := chaos.Config{Seed: c.seed}
	var (
		rt        lifecycle.Runtime
		ctl       *lifecycle.Controller
		runTo     func(time.Duration)
		conserved func() error
	)
	if shards == 0 {
		fl := fleet.New(fc)
		sup := lifecycle.NewSupervisor(fl, sc)
		sup.EnableChurn(cc, ch)
		sup.Start()
		fl.Start()
		rt, ctl, runTo, conserved = sup, &sup.Controller, func(at time.Duration) { fl.Loop.Run(at) }, fl.Conserved
	} else {
		sf := shard.New(shard.Config{Fleet: fc, Shards: shards})
		if c.checkpoints {
			sf.EnableCheckpoints(shard.CheckpointConfig{Every: sc.CheckpointEvery})
		}
		sf.EnableChurn(cc, sc, ch)
		rt, ctl, runTo, conserved = sf, &sf.Controller, sf.Run, sf.Conserved
	}
	rng := rand.New(rand.NewSource(c.seed))
	var live []packet.FlowID
	for at := step; at <= dur; at += step {
		runTo(at)
		if err := conserved(); err != nil {
			t.Fatalf("shards=%d at %v: %v", shards, at, err)
		}
		live = rt.LiveFlows(live[:0])
		if len(live) > c.n {
			t.Fatalf("shards=%d: %d live at %v, MaxLive is %d", shards, len(live), at, c.n)
		}
		if len(live) > 0 && rng.Float64() < c.collapse {
			if b, ok := rt.MemberAt(live[rng.Intn(len(live))]).Sender.Belief.(*belief.Exact); ok {
				b.Cum.Reseeded += 10
			}
		}
	}
	return rt, ctl
}

// checkLifecycleLog holds a finished run's log to the lifecycle's
// bookkeeping rules, per flow: generations open (admit, restart) and
// close (depart, crash, fail) alternately with strictly rising Gen; one
// record per opening event, matching it, closed at the closing event's
// instant; every crash or fail followed by exactly one restart — never
// an arrival — or still pending (the flow vacant) at the end; and the
// Stats counters equal to the event counts.
func checkLifecycleLog(t *testing.T, shards, n int, rt lifecycle.Runtime, ctl *lifecycle.Controller) {
	t.Helper()
	type flowLog struct {
		open, seen, casualty bool
		gen                  uint32
		rec                  int
	}
	var flows []flowLog
	at := func(flow packet.FlowID) *flowLog {
		for int(flow) >= len(flows) {
			flows = append(flows, flowLog{rec: -1})
		}
		return &flows[flow]
	}
	recs := ctl.Records
	next := 0
	for ; next < len(recs) && recs[next].Cause == lifecycle.CauseInitial; next++ {
		f := at(recs[next].M.Flow)
		f.open, f.seen, f.gen, f.rec = true, true, recs[next].M.Gen, next
	}
	if next != n {
		t.Errorf("shards=%d: %d initial records, want %d", shards, next, n)
	}
	kinds := map[lifecycle.EventKind]int{}
	rungs := map[lifecycle.RestartKind]int{}
	for _, e := range ctl.Events {
		kinds[e.Kind]++
		f := at(e.Flow)
		switch e.Kind {
		case lifecycle.EventAdmit, lifecycle.EventRestart:
			restart := e.Kind == lifecycle.EventRestart
			switch {
			case f.open:
				t.Fatalf("shards=%d %+v: opens a generation while gen %d is open", shards, e, f.gen)
			case f.seen && e.Gen <= f.gen:
				t.Fatalf("shards=%d %+v: gen not above the flow's last, %d", shards, e, f.gen)
			case restart != f.casualty:
				t.Fatalf("shards=%d %+v: restart=%v after casualty=%v", shards, e, restart, f.casualty)
			case next >= len(recs):
				t.Fatalf("shards=%d %+v: no record", shards, e)
			}
			r := recs[next]
			cause, kind := lifecycle.CauseArrival, lifecycle.RestartCold
			if restart {
				cause, kind = lifecycle.CauseRestart, e.Restart
				rungs[e.Restart]++
			}
			if r.M.Flow != e.Flow || r.M.Gen != e.Gen || r.Cause != cause || r.Kind != kind {
				t.Fatalf("shards=%d %+v: record %d is flow %d gen %d cause %d kind %v", shards, e, next, r.M.Flow, r.M.Gen, r.Cause, r.Kind)
			}
			f.open, f.seen, f.casualty, f.gen, f.rec = true, true, false, e.Gen, next
			next++
		case lifecycle.EventDepart, lifecycle.EventCrash, lifecycle.EventFail:
			if !f.open || e.Gen != f.gen {
				t.Fatalf("shards=%d %+v: closes a generation that is not open (open=%v gen %d)", shards, e, f.open, f.gen)
			}
			if got := recs[f.rec].RetiredAt; got != e.At {
				t.Fatalf("shards=%d %+v: record retired at %v", shards, e, got)
			}
			f.open, f.casualty = false, e.Kind != lifecycle.EventDepart
		default:
			t.Fatalf("shards=%d: unexpected event %+v", shards, e)
		}
	}
	if next != len(recs) {
		t.Errorf("shards=%d: %d records, %d opened by events", shards, len(recs), next)
	}
	for i, f := range flows {
		m := rt.MemberAt(packet.FlowID(i))
		if f.open != (m != nil) || (f.open && (m.Gen != f.gen || recs[f.rec].RetiredAt != -1)) {
			t.Errorf("shards=%d flow %d: log says open=%v gen %d, runtime holds %v", shards, i, f.open, f.gen, m)
		}
	}
	st := ctl.Stats
	if st.Arrivals != kinds[lifecycle.EventAdmit] || st.Departures != kinds[lifecycle.EventDepart] ||
		st.Crashes != kinds[lifecycle.EventCrash] || st.Failures != kinds[lifecycle.EventFail] ||
		st.ColdRestarts != rungs[lifecycle.RestartCold] || st.HotRestarts != rungs[lifecycle.RestartHot] ||
		st.WarmRestarts != rungs[lifecycle.RestartWarm] {
		t.Errorf("shards=%d: stats %+v, events by kind %v, restarts by rung %v", shards, st, kinds, rungs)
	}
}

// pinnedLifecycleCases are drawn cases kept because they reach a corner
// the fixed draws miss: here a departure frees a slot above a drained
// flow still reserved for its restart, so an allocator that ignored the
// reservation would hand the casualty's flow to an arrival.
var pinnedLifecycleCases = []lifecycleCase{
	{n: 4, seed: 698919, epoch: 4 * time.Second, minLive: 1, backoff: 190 * time.Millisecond, checkpoints: true, collapse: 0.08},
}

// TestLifecycleLogInvariants draws lifecycle configurations — fleet
// size, seed, churn probabilities and floor, backoff, checkpoints on or
// off, injected belief collapses — and holds both runtimes' logs to the
// same bookkeeping rules (checkLifecycleLog) and the population cap.
// The draw sequence is fixed, so a failure names a reproducible case.
func TestLifecycleLogInvariants(t *testing.T) {
	cases := pinnedLifecycleCases
	draws := 12
	if testing.Short() {
		draws = 4
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < draws; i++ {
		cases = append(cases, drawLifecycleCase(rng))
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			for _, shards := range []int{0, 1} {
				rt, ctl := c.run(t, shards)
				checkLifecycleLog(t, shards, c.n, rt, ctl)
				t.Logf("shards=%d: %d events, %+v", shards, len(ctl.Events), ctl.Stats)
			}
		})
	}
}
