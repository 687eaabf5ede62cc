package chaos

import (
	"testing"
	"time"
)

func menu() Config {
	return Config{
		Seed:         7,
		BurstProb:    0.05,
		BurstLen:     3,
		DropProb:     0.02,
		DupProb:      0.03,
		CorruptProb:  0.04,
		ReorderProb:  0.1,
		ReorderDelay: 40 * time.Millisecond,
		Blackouts:    []Window{{Start: time.Second, Len: 2 * time.Second}},
	}
}

// TestInjectorDeterministic: two injectors from one config make
// identical decisions for the same packet sequence.
func TestInjectorDeterministic(t *testing.T) {
	a, b := New(menu()), New(menu())
	for i := 0; i < 10000; i++ {
		now := time.Duration(i) * time.Millisecond
		va, vb := a.Next(now), b.Next(now)
		if va != vb {
			t.Fatalf("packet %d: verdicts diverge: %+v vs %+v", i, va, vb)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Dropped == 0 || a.Stats.Corrupted == 0 || a.Stats.Duplicated == 0 ||
		a.Stats.Reordered == 0 || a.Stats.Blackholed == 0 {
		t.Fatalf("fault menu did not exercise every fault: %+v", a.Stats)
	}
}

// TestSubIndependent: the derived ack stream shares windows but not
// per-packet decisions.
func TestSubIndependent(t *testing.T) {
	fwd := New(menu())
	ack := New(menu().Sub("ack"))
	same := 0
	const n = 2000
	for i := 0; i < n; i++ {
		// Off-blackout times so per-packet draws dominate.
		now := 5*time.Second + time.Duration(i)*time.Millisecond
		if fwd.Next(now) == ack.Next(now) {
			same++
		}
	}
	if same == n {
		t.Fatal("sub-stream identical to parent; seeds not derived")
	}
	if !ack.InBlackout(1500 * time.Millisecond) {
		t.Fatal("sub-stream lost the blackout windows")
	}
}

// TestBlackoutAndBurst: blackouts swallow everything; bursts drop
// exactly BurstLen in a row.
func TestBlackoutAndBurst(t *testing.T) {
	in := New(Config{Seed: 1, Blackouts: []Window{{Start: 0, Len: time.Second}}})
	for i := 0; i < 50; i++ {
		if v := in.Next(500 * time.Millisecond); !v.Drop {
			t.Fatal("packet survived a blackout")
		}
	}
	in = New(Config{Seed: 3, BurstProb: 1, BurstLen: 5})
	run := 0
	for i := 0; i < 20; i++ {
		if in.Next(0).Drop {
			run++
		}
	}
	if run != 20 { // BurstProb 1: every packet either triggers or rides a burst
		t.Fatalf("burst dropped %d of 20 at BurstProb=1", run)
	}
}
