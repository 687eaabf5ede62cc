package model

import (
	"slices"
	"testing"
	"time"
)

// FuzzStateHashClone drives State.SameKey, Key, CloneInto, and
// EqualDynamic with fuzzer-shaped states. In normal `go test` runs the
// checked-in seed corpus below executes as a regression test; under
// `go test -fuzz=FuzzStateHashClone ./internal/model/` the fuzzer
// explores further. Properties:
//
//   - CloneInto round-trips: the clone has the same Key and is
//     EqualDynamic with its source, and mutating the clone's queue
//     does not write through to the source (no aliasing).
//   - Key/SameKey agree on identity under single-field perturbations
//     (FuzzSameKey drives the full set of mutations).
//   - CloneInto into a dirty reused destination (the rollout scratch
//     pattern) equals a fresh Clone.
func FuzzStateHashClone(f *testing.F) {
	// Seed corpus: empty queue, short queues, own/cross mixes, a long
	// queue exercising the QHead/compaction path, and adversarial
	// near-duplicates.
	f.Add(uint8(0), int64(0), int64(0), false, false, []byte{})
	f.Add(uint8(1), int64(12000), int64(3), true, true, []byte{1, 0, 1})
	f.Add(uint8(7), int64(96000), int64(-1), true, false, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add(uint8(3), int64(1500*8), int64(41), false, true, []byte{1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add(uint8(255), int64(1<<40), int64(1<<30), true, true, []byte{0xff, 0x00, 0xff})

	f.Fuzz(func(t *testing.T, paramsID uint8, bits int64, seq int64, pingerOn, serving bool, queueSpec []byte) {
		s := buildState(paramsID, bits, seq, pingerOn, serving, queueSpec)

		// Round-trip through CloneInto, including into a dirty dst.
		var dst State
		dst.Queue = append(dst.Queue, QPkt{Own: true, Seq: 1234, Bits: 999})
		s.CloneInto(&dst)
		fresh := s.Clone()

		if s.Key() != dst.Key() || s.Key() != fresh.Key() {
			t.Fatal("clone key mismatch")
		}
		if !s.EqualDynamic(&dst) || !dst.EqualDynamic(&s) {
			t.Fatal("clone not EqualDynamic with source")
		}
		if s.QueueBits != dst.QueueBits || s.QLen() != dst.QLen() {
			t.Fatalf("clone queue accounting: bits %d vs %d, len %d vs %d",
				s.QueueBits, dst.QueueBits, s.QLen(), dst.QLen())
		}

		// Mutating the clone must not reach the source.
		if dst.QLen() > 0 {
			before := s.Queued()[0]
			dst.Queue[0].Seq += 7
			if s.Queued()[0] != before {
				t.Fatal("CloneInto aliased the source queue")
			}
			dst.Queue[0].Seq -= 7
		}

		// Distinct keys must not compare equal under compaction's
		// identity. Compare against single-field perturbations.
		variants := []State{s.Clone(), s.Clone(), s.Clone(), s.Clone()}
		variants[0].PingerOn = !variants[0].PingerOn
		variants[1].Now += time.Nanosecond
		variants[2].ParamsID++
		if variants[3].QLen() > 0 {
			variants[3].Queue[variants[3].QHead].Own = !variants[3].Queue[variants[3].QHead].Own
		} else {
			variants[3].NextCross += time.Millisecond
		}
		for i := range variants {
			v := &variants[i]
			sameKey := v.Key() == s.Key()
			if same := v.SameKey(&s); sameKey != same {
				t.Fatalf("variant %d: key-equal=%v but SameKey=%v — compaction identity broken", i, sameKey, same)
			}
			if sameKey {
				t.Fatalf("variant %d: perturbation did not change the canonical key", i)
			}
		}

		// Advancing the clone and the original identically keeps them
		// identical (determinism of Run given equal state).
		until := s.Now + 3*time.Second
		var ev1, ev2 []Event
		a, b := s.Clone(), fresh.Clone()
		a.Run(until, nil, &ev1)
		b.Run(until, nil, &ev2)
		if !a.SameKey(&b) || len(ev1) != len(ev2) {
			t.Fatal("identical states diverged under identical advance")
		}
	})
}

// buildState decodes fuzz inputs into a structurally valid State: the
// invariants the rest of the system guarantees by construction
// (QueueBits matches the queue, a serving link has an in-service
// packet, positive rates) are enforced here so the fuzzer explores
// reachable states rather than impossible ones.
func buildState(paramsID uint8, bits int64, seq int64, pingerOn, serving bool, queueSpec []byte) State {
	if bits <= 0 {
		bits = 12000
	}
	if bits > 1<<20 {
		bits = 1 << 20
	}
	p := Params{
		LinkRate:      12000,
		CrossRate:     8400,
		MeanSwitch:    30 * time.Second,
		BufferCapBits: 1 << 30,
	}
	s := Initial(p, pingerOn)
	s.ParamsID = int32(paramsID)
	s.Now = time.Duration(seq&0xffff) * time.Millisecond
	s.NextCross = s.Now + p.CrossInterval()
	s.NextToggle = s.Now + s.SwitchTick
	if serving {
		s.Serving = true
		s.InService = QPkt{Own: seq%2 == 0, Seq: seq, Bits: bits}
		s.ServiceDone = s.Now + time.Second
	} else {
		s.Serving = false
		s.InService = QPkt{}
		s.ServiceDone = 0
	}
	// Queue from the spec bytes: bit 0 = own, remaining bits vary size
	// and seq so adjacent entries differ.
	if len(queueSpec) > 256 {
		queueSpec = queueSpec[:256]
	}
	s.Queue = s.Queue[:0]
	s.QHead = 0
	s.QueueBits = 0
	for i, b := range queueSpec {
		q := QPkt{
			Own:        b&1 == 1,
			Seq:        seq + int64(i),
			Bits:       bits + int64(b>>1),
			EnqueuedAt: s.Now - time.Duration(i)*time.Millisecond,
		}
		if !q.Own {
			q.Seq = -1
		}
		s.Queue = append(s.Queue, q)
		s.QueueBits += q.Bits
	}
	// Exercise a nonzero QHead the way departures create one: extra
	// dead entries before the live window.
	if len(queueSpec) >= 4 {
		dead := QPkt{Own: false, Seq: -1, Bits: 1}
		s.Queue = append([]QPkt{dead, dead}, s.Queue...)
		s.QHead = 2
	}
	return s
}

// TestBuildStateSeedsValid double-checks the corpus builder maintains
// the queue-accounting invariant the fuzz properties rely on.
func TestBuildStateSeedsValid(t *testing.T) {
	s := buildState(3, 12000, 5, true, true, []byte{1, 0, 1, 0})
	var sum int64
	for _, q := range s.Queued() {
		sum += q.Bits
	}
	if sum != s.QueueBits {
		t.Fatalf("QueueBits %d != live queue sum %d", s.QueueBits, sum)
	}
	if s.QHead != 2 || s.QLen() != 4 {
		t.Fatalf("QHead=%d QLen=%d, want 2 and 4", s.QHead, s.QLen())
	}
}

// FuzzSameKey pins compaction's identity to Key: a generated state and a
// copy mutated by ops (pairs of an operation and its argument) are
// SameKey, either way round, exactly when their Key strings are equal,
// and states with equal Keys share a KeyHead bucket. The mutations
// touch what Key reads — ParamsID, Now, the gate, NextCross,
// NextToggle, Serving, ServiceDone, a packet's Seq, Bits or Own, a
// packet added or dropped — and what it does not — enqueue stamps, a
// dead queue prefix, SwitchTick, the cached occupancy, a parked
// in-service packet. An argument of 0 makes most of them no-ops.
func FuzzSameKey(f *testing.F) {
	for op := byte(0); op < sameKeyOps; op++ {
		f.Add(uint8(3), int64(12000), int64(5), true, true, []byte{1, 0, 1, 0, 1}, []byte{op, 1})
		f.Add(uint8(1), int64(6000), int64(8), false, false, []byte{0, 1, 1}, []byte{op, 2})
	}
	f.Add(uint8(0), int64(0), int64(0), false, false, []byte{}, []byte{10, 0, 11, 0})
	f.Add(uint8(2), int64(9000), int64(3), true, true, []byte{1, 1, 0, 1}, []byte{0, 3, 1, 2, 2, 5, 13, 7, 0, 9})
	f.Add(uint8(2), int64(9000), int64(3), true, false, []byte{1, 1, 0, 1}, []byte{8, 1, 4, 4, 10, 2, 11, 2})

	f.Fuzz(func(t *testing.T, paramsID uint8, bits int64, seq int64, pingerOn, serving bool, queueSpec, ops []byte) {
		s := buildState(paramsID, bits, seq, pingerOn, serving, queueSpec)
		v := s.Clone()
		for k := 0; k+1 < len(ops) && k < 64; k += 2 {
			mutateKeyed(&v, ops[k], ops[k+1])
		}
		eq := s.Key() == v.Key()
		if s.SameKey(&v) != eq || v.SameKey(&s) != eq {
			t.Fatalf("ops %v: Keys equal %v, SameKey %v/%v", ops, eq, s.SameKey(&v), v.SameKey(&s))
		}
		if eq && s.KeyHead() != v.KeyHead() {
			t.Fatalf("ops %v: equal Keys in buckets %x and %x", ops, s.KeyHead(), v.KeyHead())
		}
	})
}

// sameKeyOps is the number of mutations mutateKeyed knows.
const sameKeyOps = 15

// mutateKeyed applies mutation op%sameKeyOps to v with argument arg. A
// packet mutation picks queued packet arg%(n+1), or the in-service
// packet at n, whether or not the link is serving.
func mutateKeyed(v *State, op, arg byte) {
	q := v.Queued()
	pkt := &v.InService
	if i := int(arg) % (len(q) + 1); i < len(q) {
		pkt = &q[i]
	}
	d := time.Duration(arg % 3)
	switch op % sameKeyOps {
	case 0:
		pkt.EnqueuedAt += d
	case 1: // a dead prefix, as departures leave one
		dead := make([]QPkt, int(arg%4))
		for i := range dead {
			dead[i] = QPkt{Own: i%2 == 0, Seq: int64(arg), Bits: int64(i + 1)}
		}
		v.Queue = append(append(dead, v.Queue[:v.QHead]...), q...)
		v.QHead += len(dead)
	case 2:
		v.SwitchTick += d
	case 3:
		pkt.Seq += int64(d)
	case 4:
		pkt.Bits += int64(d)
	case 5:
		pkt.Own = pkt.Own != (arg%2 == 1)
	case 6:
		v.NextToggle += d
	case 7:
		v.NextCross += d
	case 8:
		v.ServiceDone += d
	case 9:
		v.PingerOn = v.PingerOn != (arg%2 == 1)
	case 10: // a packet added at arg%(n+1)
		i := int(arg) % (len(q) + 1)
		v.Queue = slices.Insert(v.Queue, v.QHead+i, QPkt{Own: arg%2 == 1, Seq: int64(arg), Bits: int64(arg) + 1})
		v.QueueBits += int64(arg) + 1
	case 11: // a packet dropped
		if len(q) > 0 {
			i := v.QHead + int(arg)%len(q)
			v.QueueBits -= v.Queue[i].Bits
			v.Queue = slices.Delete(v.Queue, i, i+1)
		}
	case 12:
		v.QueueBits += int64(d)
	case 13:
		v.Serving = v.Serving != (arg%2 == 1)
	case 14:
		v.ParamsID += int32(arg % 2)
		v.Now += d
	}
}

// rolloutStream runs s gate-frozen from its own Now to now+6 s with two
// own sends stamped relative to now, and returns what a planner reads
// of the result: (kind, bits, At − now) per event, plus Delay when
// stamps is set.
func rolloutStream(s State, now time.Duration, stamps bool) []Event {
	var evs []Event
	sends := []Send{{Seq: 900, At: now + 100*time.Millisecond}, {Seq: 901, At: now + 1300*time.Millisecond, Bits: 4000}}
	s.Run(now+6*time.Second, sends, &evs)
	for i := range evs {
		evs[i].Seq = 0
		evs[i].At -= now
		if !stamps {
			evs[i].Delay = 0
		}
	}
	return evs
}

// FuzzRolloutKey pins AppendRolloutKey to what a gate-frozen Run reads.
// Perturbing a field the key leaves out — ParamsID, the toggle grid,
// MeanSwitch, InitFullBits, sequence numbers, the pinger's rate, chunk
// and phase while the gate is off, enqueue stamps when the caller does
// not consume Delay, and (synchronized clocks) a uniform shift of every
// time and of now — changes neither the key nor the rebased delivery
// stream. Perturbing any field it keeps changes the key.
func FuzzRolloutKey(f *testing.F) {
	f.Add(uint8(0), int64(0), int64(0), false, false, []byte{}, uint16(0), false, false)
	f.Add(uint8(1), int64(12000), int64(3), true, true, []byte{1, 0, 1}, uint16(250), true, false)
	f.Add(uint8(7), int64(96000), int64(-1), true, false, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}, uint16(40), false, true)
	f.Add(uint8(3), int64(1500*8), int64(41), false, true, []byte{1, 1, 0, 1, 0, 1, 0, 1, 1, 0}, uint16(999), true, true)
	f.Add(uint8(9), int64(6000), int64(77), true, true, []byte{0, 1, 0, 1, 1}, uint16(7), false, false)

	f.Fuzz(func(t *testing.T, paramsID uint8, bits int64, seq int64, pingerOn, serving bool, queueSpec []byte, aheadMs uint16, stamps, skewed bool) {
		s := buildState(paramsID, bits, seq, pingerOn, serving, queueSpec)
		// A buffer tight enough that the rollout's sends and cross
		// chunks tail-drop, so drops are in the compared streams too.
		p := s.P.Params
		p.BufferCapBits = s.QueueBits + 2*p.PktBits()
		p.LossProb = 0.1
		if skewed {
			p.ClockSkew = 1e-3
		}
		s.SetParams(p)
		now := s.Now + time.Duration(aheadMs%1000)*time.Millisecond
		if serving {
			s.ServiceDone = now + 400*time.Millisecond
		}
		if s.NextCross < now {
			s.NextCross = now + 50*time.Millisecond
		}
		key := s.AppendRolloutKey(nil, now, stamps)
		stream := rolloutStream(s.Clone(), now, stamps)

		same := func(name string, v State, vnow time.Duration) {
			t.Helper()
			if !slices.Equal(v.AppendRolloutKey(nil, vnow, stamps), key) {
				t.Fatalf("%s changed the rollout key", name)
			}
			got := rolloutStream(v, vnow, stamps)
			if len(got) != len(stream) {
				t.Fatalf("%s: %d events, want %d", name, len(got), len(stream))
			}
			for i := range got {
				if got[i] != stream[i] {
					t.Fatalf("%s: event %d = %+v, want %+v", name, i, got[i], stream[i])
				}
			}
		}
		differs := func(name string, v State, vnow time.Duration) {
			t.Helper()
			if slices.Equal(v.AppendRolloutKey(nil, vnow, stamps), key) {
				t.Fatalf("%s did not change the rollout key", name)
			}
		}
		edit := func(fn func(v *State)) State {
			v := s.Clone()
			fn(&v)
			return v
		}
		// reparam is edit with fn applied to a fresh record's parameters:
		// the clone's record is s's, which no edit may write.
		reparam := func(fn func(p *Params)) State {
			return edit(func(v *State) {
				p := v.P.Params
				fn(&p)
				v.SetParams(p)
			})
		}

		// Excluded fields.
		same("ParamsID", edit(func(v *State) { v.ParamsID += 5 }), now)
		same("toggle grid", edit(func(v *State) {
			v.NextToggle += 123 * time.Millisecond
			v.SwitchTick *= 2
		}), now)
		same("MeanSwitch", reparam(func(p *Params) { p.MeanSwitch /= 3 }), now)
		same("InitFullBits", reparam(func(p *Params) { p.InitFullBits += 12000 }), now)
		same("sequence numbers", edit(func(v *State) {
			v.InService.Seq += 1000
			for i := range v.Queue {
				v.Queue[i].Seq += 1000
			}
		}), now)
		if !pingerOn {
			offPinger := reparam(func(p *Params) {
				p.CrossRate *= 1.5
				p.CrossPktBits = 24000
			})
			offPinger.NextCross += 77 * time.Millisecond
			same("gated-off pinger", offPinger, now)
		}
		if !stamps {
			same("unread enqueue stamps", edit(func(v *State) {
				v.InService.EnqueuedAt -= 5 * time.Millisecond
				for i := range v.Queue {
					v.Queue[i].EnqueuedAt -= time.Duration(i+1) * time.Millisecond
				}
			}), now)
		}
		const shift = 7654321 * time.Microsecond
		shifted := edit(func(v *State) { v.Rebase(shift) })
		if skewed {
			differs("a shift under clock skew", shifted, now+shift)
		} else {
			same("a uniform time shift", shifted, now+shift)
		}

		// Included fields.
		differs("LinkRate", reparam(func(p *Params) { p.LinkRate += 1 }), now)
		differs("BufferCapBits", reparam(func(p *Params) { p.BufferCapBits++ }), now)
		differs("PktBytes", reparam(func(p *Params) { p.PktBytes = 1000 }), now)
		differs("LossProb", reparam(func(p *Params) { p.LossProb += 0.01 }), now)
		differs("ClockSkew", reparam(func(p *Params) { p.ClockSkew += 1e-4 }), now)
		differs("Now", edit(func(v *State) { v.Now -= time.Nanosecond }), now)
		differs("the decision instant", s.Clone(), now+time.Nanosecond)
		differs("PingerOn", edit(func(v *State) { v.PingerOn = !v.PingerOn }), now)
		differs("Serving", edit(func(v *State) {
			v.Serving = !v.Serving
			v.InService = QPkt{Seq: -1, Bits: 12000}
		}), now)
		differs("queue length", edit(func(v *State) {
			v.Queue = append(v.Queue, QPkt{Seq: -1, Bits: 1})
			v.QueueBits++
		}), now)
		if serving {
			differs("ServiceDone", edit(func(v *State) { v.ServiceDone++ }), now)
			differs("in-service bits", edit(func(v *State) { v.InService.Bits++ }), now)
			differs("in-service owner", edit(func(v *State) { v.InService.Own = !v.InService.Own }), now)
		}
		if s.QLen() > 0 {
			last := func(v *State) *QPkt { return &v.Queue[len(v.Queue)-1] }
			differs("queued bits", edit(func(v *State) { last(v).Bits++; v.QueueBits++ }), now)
			differs("queued owner", edit(func(v *State) { last(v).Own = !last(v).Own }), now)
			if stamps {
				differs("a read enqueue stamp", edit(func(v *State) { last(v).EnqueuedAt-- }), now)
			}
		}
		if pingerOn {
			differs("cross interval", reparam(func(p *Params) { p.CrossRate *= 1.5 }), now)
			differs("cross chunk", reparam(func(p *Params) { p.CrossPktBits = 24000 }), now)
			differs("NextCross", edit(func(v *State) { v.NextCross++ }), now)
		}
	})
}
