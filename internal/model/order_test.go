package model

import (
	"slices"
	"testing"
	"time"
)

// RefRun is Run as it was before the advance loop was rebuilt around
// arrivals: one event per iteration, the earliest of link completion,
// pinger emission and send, a tie going to the first of them in that
// order. It is the reference the rebuilt loop is compared against (here
// and, through the export, by FuzzRunStreamMatchesRun).
func (s *State) RefRun(until time.Duration, sends []Send, out *[]Event) {
	crossIvl := s.P.CrossInterval()
	si := 0
	for {
		next := until + 1
		kind := -1
		if s.Serving && s.ServiceDone <= until && s.ServiceDone < next {
			next, kind = s.ServiceDone, 0
		}
		if s.NextCross <= until && s.NextCross < next {
			next, kind = s.NextCross, 1
		}
		if si < len(sends) && sends[si].At <= until && sends[si].At < next {
			next, kind = sends[si].At, 2
		}
		switch kind {
		case -1:
			if s.Now < until {
				s.Now = until
			}
			return
		case 0:
			q := s.InService
			s.Now = s.ServiceDone
			s.Serving = false
			ev := Event{Kind: CrossDelivered, Seq: int64(q.Seq), At: s.Now, Bits: q.Bits, Delay: s.Now - q.EnqueuedAt}
			if q.Own {
				ev.Kind = OwnDelivered
			}
			*out = append(*out, ev)
			if s.QHead < len(s.Queue) {
				head := s.Queue[s.QHead]
				s.QHead++
				s.QueueBits -= head.Bits
				s.startService(head)
			}
		case 1:
			s.Now = s.NextCross
			s.NextCross += crossIvl
			if s.PingerOn {
				s.enqueue(QPkt{Seq: -1, Bits: s.P.CrossBits()}, out, nil)
			}
		case 2:
			snd := sends[si]
			si++
			s.Now = snd.At
			bits := snd.Bits
			if bits <= 0 {
				bits = s.P.PktBits()
			}
			s.enqueue(QPkt{Own: true, Seq: int32(snd.Seq), Bits: bits}, out, nil)
		}
	}
}

// TestRunSameInstantOrder pins the order of events that share an
// instant, which the drain loop depends on: the link completes its
// packet, then the pinger's chunk is admitted or dropped, then the own
// send is. A full buffer and one a packet short of full make every
// wrong order visible, as a drop that should not be or as the wrong
// packet at the tail; and the instant is approached with until one
// nanosecond short of it, on it and one past it.
func TestRunSameInstantOrder(t *testing.T) {
	const (
		T       = 5 * time.Second
		later   = T + 300*time.Millisecond
		pkt     = 12000
		capBits = 4 * pkt
		seq     = 7
	)
	// What was admitted at T, in queue order: 'c' a cross chunk, 'o' the
	// own packet.
	for _, tc := range []struct {
		name                string
		done, cross, sendAt time.Duration
		queued              int
		kinds               []EventKind
		tail                string
	}{
		{"all three, full", T, T, T, 4, []EventKind{CrossDelivered, OwnBufferDrop}, "c"},
		{"all three, one short", T, T, T, 3, []EventKind{CrossDelivered}, "co"},
		{"departure and cross, full", T, T, later, 4, []EventKind{CrossDelivered}, "c"},
		{"departure and cross, one short", T, T, later, 3, []EventKind{CrossDelivered}, "c"},
		{"departure and send, full", T, later, T, 4, []EventKind{CrossDelivered}, "o"},
		{"departure and send, one short", T, later, T, 3, []EventKind{CrossDelivered}, "o"},
		{"cross and send, full", later, T, T, 4, []EventKind{CrossBufferDrop, OwnBufferDrop}, ""},
		{"cross and send, one short", later, T, T, 3, []EventKind{OwnBufferDrop}, "c"},
	} {
		build := func() State {
			s := Initial(Params{LinkRate: 12000, CrossRate: 12000, BufferCapBits: capBits}, true)
			s.Now = T - time.Second/2
			s.NextCross = tc.cross
			s.Serving, s.ServiceDone = true, tc.done
			s.InService = QPkt{Seq: -1, Bits: pkt, EnqueuedAt: 0}
			for i := 0; i < tc.queued; i++ {
				s.Queue = append(s.Queue, QPkt{Seq: -1, Bits: pkt, EnqueuedAt: time.Second})
				s.QueueBits += pkt
			}
			return s
		}
		var sends []Send
		if tc.sendAt == T {
			sends = []Send{{Seq: seq, At: T}}
		}
		check := func(how string, s *State, evs []Event, now time.Duration) {
			t.Helper()
			var kinds []EventKind
			for _, ev := range evs {
				kinds = append(kinds, ev.Kind)
				if ev.At != T {
					t.Errorf("%s, %s: %v at %v, want %v", tc.name, how, ev.Kind, ev.At, T)
				}
			}
			if !slices.Equal(kinds, tc.kinds) {
				t.Errorf("%s, %s: events %v, want %v", tc.name, how, kinds, tc.kinds)
			}
			var tail []byte
			for _, q := range s.Queued() {
				switch {
				case q.EnqueuedAt != T:
				case q.Own && q.Seq == seq:
					tail = append(tail, 'o')
				default:
					tail = append(tail, 'c')
				}
			}
			if string(tail) != tc.tail {
				t.Errorf("%s, %s: admitted at the instant %q, want %q", tc.name, how, tail, tc.tail)
			}
			if s.Now != now {
				t.Errorf("%s, %s: Now = %v, want %v", tc.name, how, s.Now, now)
			}
		}

		s := build()
		check("until the instant", &s, collect(&s, T, sends), T)
		s = build()
		check("until 1ns past", &s, collect(&s, T+1, sends), T+1)

		// One nanosecond short nothing is due; the next advance finds all
		// of it still pending.
		s = build()
		before := s.Clone()
		if evs := collect(&s, T-1, nil); len(evs) != 0 || !s.EqualDynamic(&before) || s.NextCross != before.NextCross {
			t.Errorf("%s: something happened before the instant: %v", tc.name, evs)
		}
		check("resumed from 1ns short", &s, collect(&s, T, sends), T)

		s = build()
		var evs []Event
		s.RefRun(T, sends, &evs)
		check("reference loop", &s, evs, T)
	}
}
