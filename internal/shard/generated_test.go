package shard

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
)

// schedule is one generated lifecycle scenario: a small fleet under a
// drawn churn schedule, with barrier checkpoints and the shard-fault
// schedule each on or off.
type schedule struct {
	n                     int
	seed                  int64
	dur, epoch            time.Duration
	depart, crash, arrive float64
	backoff               time.Duration
	checkpointEvery       time.Duration // 0 = checkpoints off
	faults                bool
}

func (sc schedule) String() string {
	return fmt.Sprintf("n=%d/seed=%d/epoch=%v/d=%.2f/c=%.2f/a=%.2f/backoff=%v/ckpt=%v/faults=%v",
		sc.n, sc.seed, sc.epoch, sc.depart, sc.crash, sc.arrive, sc.backoff, sc.checkpointEvery, sc.faults)
}

// drawSchedule draws one scenario. Probabilities are zero a third of
// the time each, so schedules with no crashes, no departures or no
// arrivals are generated too.
func drawSchedule(rng *rand.Rand) schedule {
	prob := func(hi float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return hi * rng.Float64()
	}
	sc := schedule{
		n:       1 + rng.Intn(12),
		seed:    rng.Int63n(1 << 20),
		dur:     20 * time.Second,
		epoch:   time.Duration(2+rng.Intn(4)) * time.Second,
		depart:  prob(0.3),
		crash:   prob(0.4),
		arrive:  prob(1),
		backoff: time.Duration(100+rng.Intn(900)) * time.Millisecond,
		faults:  rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		sc.checkpointEvery = time.Duration(1+rng.Intn(4)) * time.Second
	}
	return sc
}

// pinnedSchedules are generated draws that once failed, shrunk by hand,
// plus the corners a uniform draw rarely lands on. (No generated draw
// has failed yet; the first that does is shrunk and added here.)
var pinnedSchedules = []schedule{
	// A lone member: every virtual shard but one is empty, and MinLive
	// pins the population, so only faults and restarts act.
	{n: 1, seed: 1, dur: 20 * time.Second, epoch: 2 * time.Second, crash: 0.4, arrive: 1,
		backoff: 100 * time.Millisecond, checkpointEvery: time.Second, faults: true},
	// Everything at once on a full-size draw: churn restarts and
	// failovers contend for the same flows, checkpoints land on kill
	// barriers.
	{n: 12, seed: 7, dur: 20 * time.Second, epoch: 2 * time.Second, depart: 0.2, crash: 0.4, arrive: 1,
		backoff: 100 * time.Millisecond, checkpointEvery: time.Second, faults: true},
}

func (sc schedule) run(k int) *Fleet {
	sf := New(Config{
		Fleet:  fleet.Config{N: sc.n, Seed: sc.seed, Workers: 1, BeliefCfg: belief.Config{Recover: true}},
		Shards: k,
	})
	if sc.checkpointEvery > 0 {
		sf.EnableCheckpoints(CheckpointConfig{Every: sc.checkpointEvery})
	}
	if sc.faults {
		sf.EnableFaults(FaultConfig{
			Epoch: 5 * time.Second, KillProb: 0.3, StallProb: 0.25, MaxStall: time.Second,
		}, chaos.Config{Seed: sc.seed})
	}
	sf.EnableChurn(lifecycle.ChurnConfig{
		Epoch: sc.epoch, DepartProb: sc.depart, CrashProb: sc.crash, ArriveProb: sc.arrive,
		MinLive: 1,
	}, lifecycle.SupervisorConfig{BackoffBase: sc.backoff}, chaos.Config{Seed: sc.seed})
	sf.Run(sc.dur)
	return sf
}

// recordTuple flattens one generation's record, member counters
// included, for comparison across shard counts.
func recordTuple(r lifecycle.MemberRecord) string {
	m := r.M
	return fmt.Sprintf("flow=%d gen=%d at=%v cause=%d kind=%v firstAck=%v retired=%v sent=%d absorbed=%d genDelivered=%d genDrops=%d utility=%x",
		m.Flow, m.Gen, m.AdmittedAt, r.Cause, r.Kind, r.FirstAckAt, r.RetiredAt,
		m.Injected, m.Delay.N, m.GenDelivered, m.GenDrops, m.Utility)
}

// checkConservation asserts, at the end of a run, that every packet
// ever sent is accounted for exactly once: sent = delivered + dropped +
// in flight + fenced (+ orphaned). The identity closes per flow rather
// than per generation, because a warm-restored generation absorbs its
// predecessor's pre-checkpoint in-flight sends; per generation the
// fenced counters must equal what the member itself absorbed. The
// bottleneck's own books are the roster's Conserved.
func checkConservation(t *testing.T, sf *Fleet) {
	t.Helper()
	if err := sf.Conserved(); err != nil {
		t.Error(err)
	}
	sent := make([]int64, sf.Slots())
	absorbed := make([]int64, sf.Slots())
	for _, r := range sf.Records {
		m := r.M
		sent[m.Flow] += m.Injected
		absorbed[m.Flow] += m.Delay.N
		delivered, drops := m.GenDelivered, m.GenDrops
		if r.RetiredAt < 0 {
			if sf.MemberAt(m.Flow) != m {
				t.Errorf("flow %d gen %d: record open but the member is not live", m.Flow, m.Gen)
			}
			delivered, drops = sf.Delivered(m.Flow), sf.FlowDrops(m.Flow)
		} else if !m.Retired() {
			t.Errorf("flow %d gen %d: record closed at %v but the member is live", m.Flow, m.Gen, r.RetiredAt)
		}
		if int64(delivered) != m.Delay.N {
			t.Errorf("flow %d gen %d: fenced delivered %d, member absorbed %d acks — generations merged",
				m.Flow, m.Gen, delivered, m.Delay.N)
		}
		if drops < 0 {
			t.Errorf("flow %d gen %d: negative fenced drops %d", m.Flow, m.Gen, drops)
		}
	}
	var unabsorbed int64
	for i := range sent {
		flow := packet.FlowID(i)
		// The records' per-generation send counts against the roster's
		// ledger.
		left := sent[i] - int64(sf.DeliveredTotal(flow)) - int64(sf.Buffer.Drops[flow])
		if left < 0 || left != sf.InFlight(flow) {
			t.Errorf("flow %d: sent %d − delivered %d − dropped %d = %d in flight, ledger says %d",
				i, sent[i], sf.DeliveredTotal(flow), sf.Buffer.Drops[flow], left, sf.InFlight(flow))
		}
		// Deliveries no generation absorbed were orphaned or fenced.
		stray := int64(sf.DeliveredTotal(flow)) - absorbed[i]
		if stray < 0 {
			t.Errorf("flow %d: generations absorbed %d acks of %d deliveries", i, absorbed[i], sf.DeliveredTotal(flow))
		}
		unabsorbed += stray
	}
	if want := sf.OrphanAcks + sf.Failover.FencedAcks; unabsorbed != want {
		t.Errorf("%d deliveries absorbed by no generation, but %d orphaned + %d fenced",
			unabsorbed, sf.OrphanAcks, sf.Failover.FencedAcks)
	}
}

// checkSchedule runs the scenario at K ∈ {1, 2, 4} and asserts the
// replay hash, the lifecycle counters and every generation's record
// agree, and that each run conserves packets.
func checkSchedule(t *testing.T, sc schedule) {
	ref := sc.run(1)
	checkConservation(t, ref)
	t.Logf("%d generations, %+v, %+v", len(ref.Records), ref.Stats, ref.Failover)
	for _, k := range []int{2, 4} {
		sf := sc.run(k)
		checkConservation(t, sf)
		if got, want := sf.ReplayHash(), ref.ReplayHash(); got != want {
			t.Errorf("shards=%d replay hash %016x, want %016x (shards=1)", k, got, want)
		}
		if sf.Stats != ref.Stats || sf.Failover != ref.Failover {
			t.Errorf("shards=%d counters %+v %+v, want %+v %+v (shards=1)", k, sf.Stats, sf.Failover, ref.Stats, ref.Failover)
		}
		if len(sf.Records) != len(ref.Records) {
			t.Fatalf("shards=%d admitted %d generations, want %d (shards=1)", k, len(sf.Records), len(ref.Records))
		}
		for i := range sf.Records {
			if got, want := recordTuple(sf.Records[i]), recordTuple(ref.Records[i]); got != want {
				t.Fatalf("shards=%d generation %d:\n got %s\nwant %s (shards=1)", k, i, got, want)
			}
		}
	}
}

// TestGeneratedSchedules is the topology fuzz: drawn fleet sizes,
// seeds, churn probabilities, checkpoint periods and fault schedules,
// each checked for shard-count invariance and packet conservation. The
// draw sequence is fixed, so a failure names a reproducible scenario.
func TestGeneratedSchedules(t *testing.T) {
	for _, sc := range pinnedSchedules {
		t.Run("pinned/"+sc.String(), func(t *testing.T) { checkSchedule(t, sc) })
	}
	draws := 6
	if testing.Short() {
		draws = 2
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < draws; i++ {
		sc := drawSchedule(rng)
		t.Run(sc.String(), func(t *testing.T) { checkSchedule(t, sc) })
	}
}
