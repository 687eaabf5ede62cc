package elements

import (
	"testing"

	"modelcc/internal/packet"
)

// TestQueuesSteadyStateAllocs: in every queue a Throughput drains, an
// arrival and a departure at a steady backlog allocate nothing.
func TestQueuesSteadyStateAllocs(t *testing.T) {
	const backlog = 48
	for _, tc := range []struct {
		name string
		q    interface {
			Node
			Dequeuer
		}
	}{
		{"Buffer", NewBuffer(64 * pktBits)},
		{"FairQueue", NewFairQueue(64 * pktBits)},
	} {
		seq := int64(0)
		arrive := func() {
			tc.q.Receive(packet.New(packet.FlowID(seq%3), seq, 0))
			seq++
		}
		for seq < backlog {
			arrive()
		}
		step := func() {
			arrive()
			if _, ok := tc.q.Dequeue(); !ok {
				t.Fatalf("%s: empty at a backlog of %d", tc.name, backlog)
			}
		}
		// A thousand steps per run, so a queue whose array grows without
		// bound allocates at least once per run.
		steps := func() {
			for range 1000 {
				step()
			}
		}
		steps() // grow the arrays to twice the backlog
		if allocs := testing.AllocsPerRun(10, steps); allocs != 0 {
			t.Errorf("%s: a thousand arrivals and departures at a steady backlog allocate %v times, want 0", tc.name, allocs)
		}
	}
}
