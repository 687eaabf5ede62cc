package model

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"modelcc/internal/units"
)

// TestRunQueueStaysCompact steps State.Run through generated schedules
// one event instant at a time beside RefRun, the one-event-per-iteration
// reference whose queue only ever appends and advances its head. After
// every departure and arrival the two must hold the same packets, and the
// dead prefix must be no longer than the live window, so the array holds
// at most twice the backlog.
func TestRunQueueStaysCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for c := 0; c < 100; c++ {
		const pkt = 12000
		p := Params{
			LinkRate:      units.BitRate(pkt * (1 + rng.Intn(3))),
			CrossRate:     units.BitRate(pkt * []float64{0, 0.4, 0.7, 1.3}[rng.Intn(4)]),
			BufferCapBits: pkt * int64(1+rng.Intn(64)),
			CrossPktBits:  []int64{0, 4000, 30000}[rng.Intn(3)],
		}
		p.InitFullBits = rng.Int63n(p.BufferCapBits + 1)
		s := Initial(p, rng.Intn(2) == 0)
		ref := s.Clone()
		var sends []Send
		var end time.Duration
		for i := 0; i < 150; i++ {
			end += time.Duration(rng.ExpFloat64() * float64(600*time.Millisecond))
			sends = append(sends, Send{Seq: int64(i), At: end, Bits: []int64{0, 0, 6000}[rng.Intn(3)]})
		}
		var evs, refEvs []Event
		for s.Now < end {
			next := min(end, ref.NextCross)
			if ref.Serving {
				next = min(next, ref.ServiceDone)
			}
			if len(sends) > 0 {
				next = min(next, sends[0].At)
			}
			hi := 0
			for hi < len(sends) && sends[hi].At <= next {
				hi++
			}
			s.Run(next, sends[:hi], &evs)
			ref.RefRun(next, sends[:hi], &refEvs)
			sends = sends[hi:]
			if s.QHead > s.QLen() {
				t.Fatalf("case %d at %v: %d dead slots before %d live ones", c, s.Now, s.QHead, s.QLen())
			}
			if !slices.Equal(s.Queued(), ref.Queued()) || s.QueueBits != ref.QueueBits {
				t.Fatalf("case %d at %v: queue %v (%d bits), reference %v (%d bits)",
					c, s.Now, s.Queued(), s.QueueBits, ref.Queued(), ref.QueueBits)
			}
			if rng.Intn(40) == 0 {
				s.Toggle()
				ref.Toggle()
			}
		}
		if !slices.Equal(evs, refEvs) {
			t.Fatalf("case %d: Run's events differ from the reference's", c)
		}
	}
}
