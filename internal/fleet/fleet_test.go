package fleet

import (
	"reflect"
	"testing"
	"time"

	"modelcc/internal/packet"
	"modelcc/internal/units"
)

// snapshot reduces a finished fleet to a deterministic, deeply
// comparable value: per-member counters and acked series lengths,
// bottleneck drops, and cache counters.
type snapshot struct {
	Sent, Acked  []int64
	Delivered    []int
	AckedPts     []int
	Drops        int
	Hits, Misses int
}

func snap(f *Fleet) snapshot {
	var s snapshot
	for _, m := range f.Members {
		s.Sent = append(s.Sent, m.Sender.Sent)
		s.Acked = append(s.Acked, m.Sender.Acked)
		s.Delivered = append(s.Delivered, f.Delivered(m.Flow))
		s.AckedPts = append(s.AckedPts, m.AckedSeq.Len())
	}
	s.Drops = f.Drops()
	s.Hits, s.Misses = f.CacheStats()
	return s
}

func TestFleetProgressAndSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	fl := New(Config{N: 4, Seed: 7})
	fl.Run(60 * time.Second)

	total := 0
	for _, m := range fl.Members {
		if m.Sender.Sent == 0 {
			t.Errorf("member %d never sent", m.Flow)
		}
		total += fl.Delivered(m.Flow)
	}
	// The 4-sender link carries 2 pkt/s; after convergence the fleet
	// should be using most of it.
	if total < 60 {
		t.Errorf("fleet delivered only %d packets over 60 s on a 2 pkt/s link", total)
	}
	if hits, misses := fl.CacheStats(); hits+misses == 0 {
		t.Error("shared policy cache saw no lookups")
	}
}

// TestFleetWorkerDeterminism is the PR's core guarantee: the same seed
// produces bit-identical fleet results at any rollout pool width,
// extending the serial/parallel equivalence of the engine layers to a
// whole N-sender run (shared pool, shared cache, batching scheduler and
// all).
func TestFleetWorkerDeterminism(t *testing.T) {
	// Deliberately not skipped in -short mode: this is the fleet's key
	// concurrency property and the run is kept small enough for the CI
	// race job.
	dur := 30 * time.Second
	widths := []int{0, 3, 8}
	if testing.Short() {
		dur = 15 * time.Second
		widths = []int{0, 3}
	}
	run := func(workers int) snapshot {
		fl := New(Config{N: 16, Seed: 11, Workers: workers})
		fl.Run(dur)
		return snap(fl)
	}
	base := run(1)
	for _, w := range widths {
		if got := run(w); !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d diverged from serial:\nserial: %+v\ngot:    %+v", w, base, got)
		}
	}
}

// TestFleetAckBatching: acknowledgments landing at one instant must be
// folded into one wake. The member's acked-series grows per ack while
// the sender's wake count does not.
func TestFleetAckBatching(t *testing.T) {
	fl := New(Config{N: 2, Seed: 1})
	m := fl.Members[0]
	wakesBefore := m.Sender.Wakes
	// Deliver three same-instant acks through the scheduler path.
	for i := int64(0); i < 3; i++ {
		m.OnAck(packet.Ack{Flow: m.Flow, Seq: i, ReceivedAt: fl.Loop.Now()})
	}
	if m.Sender.Wakes != wakesBefore {
		t.Fatalf("wake ran before the batching drain: %d -> %d", wakesBefore, m.Sender.Wakes)
	}
	fl.Loop.Step() // the armed drain event
	if got := m.Sender.Wakes - wakesBefore; got != 1 {
		t.Errorf("3 same-instant acks caused %d wakes, want 1", got)
	}
	if m.Sender.Acked != 3 {
		t.Errorf("sender consumed %d acks, want 3", m.Sender.Acked)
	}
}

// TestFleetStagger: members must not all take their first decision at
// the same instant.
func TestFleetStagger(t *testing.T) {
	fl := New(Config{N: 8, Seed: 1})
	fl.Start()
	firsts := map[time.Duration]bool{}
	first := make([]bool, len(fl.Members))
	for fl.Loop.Now() < 5*time.Second {
		if !fl.Loop.Step() {
			break
		}
		// A member's first send happens inside the step that turns its
		// Sent count positive.
		for i, m := range fl.Members {
			if !first[i] && m.Sender.Sent > 0 {
				first[i] = true
				firsts[fl.Loop.Now()] = true
			}
		}
	}
	if len(firsts) < 2 {
		t.Errorf("all first sends at one instant (%d distinct times); stagger is not spreading epochs", len(firsts))
	}
}

// TestFleetFairQueueFairness: under the DRR bottleneck no sender can be
// locked out, whatever the FIFO dynamics do — the structural guarantee
// the fairness sweep measures against.
func TestFleetFairQueueFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	fl := New(Config{N: 16, Seed: 7, FairQueue: true})
	fl.Run(60 * time.Second)
	min, max := 1<<30, 0
	for _, m := range fl.Members {
		d := fl.Delivered(m.Flow)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// Fair share is 30 packets each over the minute.
	if min == 0 {
		t.Error("a sender starved completely under DRR fair queueing")
	}
	if min*4 < max {
		t.Errorf("DRR split grossly unfair: min=%d max=%d", min, max)
	}
}

func TestFleetSharedPoolIsUsed(t *testing.T) {
	fl := New(Config{N: 2, Seed: 1, Workers: 3})
	if fl.Pool.Workers() != 3 {
		t.Fatalf("fleet pool width = %d, want 3", fl.Pool.Workers())
	}
	fl.Run(5 * time.Second)
	// Every member's belief and plan must point at the fleet pool.
	for _, m := range fl.Members {
		if m.Sender.Plan.Pool != fl.Pool {
			t.Error("member plan does not share the fleet pool")
		}
	}
}

func TestPriorScaling(t *testing.T) {
	small := Prior(12000, 96000, 2)
	if small.CrossPktBits != 0 {
		t.Errorf("N=2 prior should model per-packet cross traffic, got chunk %d", small.CrossPktBits)
	}
	big := Prior(256*6000, 4*12000*256, 256)
	if big.CrossPktBits != packet.DefaultSizeBits*64 {
		t.Errorf("N=256 chunk = %d bits, want %d", big.CrossPktBits, packet.DefaultSizeBits*64)
	}
	states, _ := big.Enumerate()
	if len(states) == 0 {
		t.Fatal("empty prior")
	}
	for _, s := range states {
		if s.SwitchTick != 5*time.Second {
			t.Errorf("fleet prior switch tick = %v, want 5s", s.SwitchTick)
		}
		if s.P.CrossRate <= 0 || s.P.CrossRate >= s.P.LinkRate {
			t.Errorf("cross rate %v outside (0, link %v)", s.P.CrossRate, s.P.LinkRate)
		}
	}
	// The CrossFrac grid must stay a real grid that brackets the fair
	// share (N-1)/N at every sweep size — a constant cap on the upper
	// bound once inverted the range at N >= 81, collapsing it to one
	// point below fair share.
	for _, n := range []int{2, 4, 16, 64, 100, 256, 1024} {
		pr := Prior(units.BitRate(6000*n), 4*packet.DefaultSizeBits*int64(n), n)
		vals := pr.CrossFrac.Values()
		if len(vals) != 4 {
			t.Errorf("N=%d: CrossFrac grid has %d points, want 4", n, len(vals))
			continue
		}
		fair := 1 - 1/float64(n)
		if vals[0] >= fair || vals[len(vals)-1] <= fair {
			t.Errorf("N=%d: grid [%v, %v] does not bracket fair share %v", n, vals[0], vals[len(vals)-1], fair)
		}
		if vals[len(vals)-1] >= 1 {
			t.Errorf("N=%d: CrossFrac upper bound %v >= 1", n, vals[len(vals)-1])
		}
	}
}
