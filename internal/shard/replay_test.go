package shard

import (
	"slices"
	"testing"

	"modelcc/internal/fleet"
	"modelcc/internal/packet"
)

// TestReplaySteadyStateAllocs: once its events cover a window's packets,
// replaying a window onto the bottleneck allocates nothing — each packet
// re-arms an event bound once instead of scheduling a closure of its own.
func TestReplaySteadyStateAllocs(t *testing.T) {
	const n = 8
	sf := New(Config{Fleet: fleet.Config{N: n, Workers: 1}, Shards: 1})
	at := sf.BLoop.Now()
	window := func() {
		at += sf.Delta
		sf.merged = sf.merged[:0]
		for f := n - 1; f >= 0; f-- {
			sf.merged = append(sf.merged, packet.New(packet.FlowID(f), int64(at/sf.Delta), at))
		}
		slices.SortFunc(sf.merged, canonical)
		sf.replay()
		sf.BLoop.Run(at)
	}
	for range 10 { // fill the buffer, so the bottleneck's counters hold every flow
		window()
	}
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Errorf("a warm window's replay allocates %v times, want 0", allocs)
	}
	if sf.Buffer.Drops[n-1] == 0 {
		t.Error("the buffer never filled: the replayed packets did not reach the bottleneck")
	}
}

// TestReplayRefusesPendingEvent: re-arming an injection that has not fired
// would drop its packet, so the replay panics instead.
func TestReplayRefusesPendingEvent(t *testing.T) {
	sf := New(Config{Fleet: fleet.Config{N: 2, Workers: 1}, Shards: 1})
	sf.merged = append(sf.merged[:0], packet.New(0, 0, sf.Delta))
	sf.replay()
	defer func() {
		if recover() == nil {
			t.Error("re-arming a pending injection did not panic")
		}
	}()
	sf.replay()
}
