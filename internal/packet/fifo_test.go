package packet

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFIFOMatchesSlice drives generated push, pop and pop-back sequences
// through a FIFO and a plain slice, and checks after every operation that
// both hold the same packets and that the dead prefix is no longer than
// the live window, so the array holds at most twice the backlog.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for c := 0; c < 100; c++ {
		var q FIFO
		var ref []Packet
		seq := int64(0)
		push := rng.Float64() // the share of pushes, redrawn now and then
		for op := 0; op < 800; op++ {
			if rng.Intn(100) == 0 {
				push = rng.Float64()
			}
			switch r := rng.Float64(); {
			case r < push:
				p := New(FlowID(rng.Intn(4)), seq, 0)
				seq++
				q.Push(p)
				ref = append(ref, p)
			case r < push+0.8*(1-push):
				p, ok := q.Pop()
				if ok != (len(ref) > 0) || ok && p != ref[0] {
					t.Fatalf("case %d op %d: Pop = %v, %v; queue was %v", c, op, p, ok, ref)
				}
				if ok {
					ref = ref[1:]
				}
			default:
				p, ok := q.PopBack()
				if ok != (len(ref) > 0) || ok && p != ref[len(ref)-1] {
					t.Fatalf("case %d op %d: PopBack = %v, %v; queue was %v", c, op, p, ok, ref)
				}
				if ok {
					ref = ref[:len(ref)-1]
				}
			}
			if q.Len() != len(ref) || !slices.Equal(q.buf[q.head:], ref) {
				t.Fatalf("case %d op %d: queue %v, want %v", c, op, q.buf[q.head:], ref)
			}
			if q.head > q.Len() {
				t.Fatalf("case %d op %d: %d dead slots before %d live ones", c, op, q.head, q.Len())
			}
		}
	}
}

// TestFIFOSteadyStateAllocs: at a steady backlog a push and a pop
// allocate nothing.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	const backlog = 100
	var q FIFO
	seq := int64(0)
	for ; seq < backlog; seq++ {
		q.Push(New(FlowSelf, seq, 0))
	}
	step := func() {
		q.Push(New(FlowSelf, seq, 0))
		seq++
		q.Pop()
	}
	// A thousand steps per run, so an array that grows without bound
	// allocates at least once per run.
	steps := func() {
		for range 1000 {
			step()
		}
	}
	steps() // grow the array to twice the backlog
	if allocs := testing.AllocsPerRun(10, steps); allocs != 0 {
		t.Errorf("a thousand pushes and pops at a steady backlog allocate %v times, want 0", allocs)
	}
}
