package model

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"modelcc/internal/units"
)

// TestQPktLayout pins a queue entry at 24 bytes: the 32-bit sequence
// number packs beside Own, then the size and the enqueue stamp. Every
// hypothesis's queue is an array of these, and the belief's queue pages,
// the arena's branch slots and the planner's clones copy them.
func TestQPktLayout(t *testing.T) {
	if got := unsafe.Sizeof(QPkt{}); got != 24 {
		t.Errorf("model.QPkt is %d bytes, want 24", got)
	}
}

// TestStateLayout pins a hypothesis at 120 bytes: a pointer to its
// shared parameter record, the packed identity and flags word, and the
// dynamic state with its 24-byte in-service entry. Every fork, move and
// copy of a belief's support copies exactly this.
func TestStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got != 120 {
		t.Errorf("model.State is %d bytes, want 120", got)
	}
}

// TestRecordDerivedConstants: the constants a record computes once are
// what Params computes each call, and serviceTime is TransmitTime at
// every size, the two it looks up and any other.
func TestRecordDerivedConstants(t *testing.T) {
	states, _ := Fig3Prior().Enumerate()
	ps := []Params{
		Fig2Actual(),
		{LinkRate: 0, CrossRate: 0},
		{LinkRate: 12000, CrossRate: -1, PktBytes: 700},
		{LinkRate: 1.5e6, CrossRate: 1.4e6, CrossPktBits: 1 << 20, PktBytes: 1000},
	}
	for _, s := range states {
		ps = append(ps, s.P.Params)
	}
	for _, p := range ps {
		r := newRecord(p)
		if r.Params != p {
			t.Fatalf("record of %+v holds %+v", p, r.Params)
		}
		if r.PktBits() != p.PktBits() || r.CrossBits() != p.CrossBits() ||
			r.CrossInterval() != p.CrossInterval() || r.ServiceTime() != p.ServiceTime() {
			t.Fatalf("%+v: record constants (%d, %d, %v, %v) differ from Params'", p, r.PktBits(), r.CrossBits(), r.CrossInterval(), r.ServiceTime())
		}
		for _, bits := range []int64{0, 1, 999, p.PktBits(), p.CrossBits(), 3 * p.PktBits()} {
			if got, want := r.serviceTime(bits), units.TransmitTime(bits, p.LinkRate); got != want {
				t.Fatalf("%+v: serviceTime(%d) = %v, TransmitTime %v", p, bits, got, want)
			}
		}
	}
}

// TestSetParamsLeavesCloneSourceAlone: a clone shares its source's record,
// and giving the clone other parameters through SetParams changes neither
// the source's record, nor the gate-start twin that shares it, nor what
// the source does: the same Run events and the same rollout key.
func TestSetParamsLeavesCloneSourceAlone(t *testing.T) {
	states, _ := Fig3Prior().Enumerate()
	s, twin := states[10], states[11]
	if s.ParamsID != twin.ParamsID || s.P != twin.P {
		t.Fatal("gate-start variants of one grid point do not share a record")
	}
	sends := []Send{{Seq: 0, At: 100 * time.Millisecond}, {Seq: 1, At: 700 * time.Millisecond}, {Seq: 2, At: 2 * time.Second}}
	s.Run(time.Second, sends[:2], nil)
	before := s.P.Params
	behaviour := func(s *State) ([]Event, []uint64) {
		r := s.Clone()
		var evs []Event
		r.Run(6*time.Second, sends[2:], &evs)
		return evs, s.AppendRolloutKey(nil, s.Now, true)
	}
	wantEvs, wantKey := behaviour(&s)

	c := s.Clone()
	if c.P != s.P {
		t.Fatal("Clone does not share the record")
	}
	p := c.P.Params
	p.LinkRate *= 2
	p.CrossRate /= 2
	p.BufferCapBits /= 3
	p.PktBytes = 1000
	c.SetParams(p)
	cEvs, cKey := behaviour(&c)
	if slices.Equal(cKey, wantKey) || slices.Equal(cEvs, wantEvs) {
		t.Fatal("the perturbed clone behaves like its source: the test perturbs nothing")
	}

	if s.P.Params != before || twin.P.Params != before || s.P != twin.P {
		t.Fatalf("SetParams on a clone rewrote the shared record: %+v, was %+v", s.P.Params, before)
	}
	gotEvs, gotKey := behaviour(&s)
	if !slices.Equal(gotEvs, wantEvs) || !slices.Equal(gotKey, wantKey) {
		t.Fatal("the source's Run events or rollout key changed after its clone was given other parameters")
	}
}

// TestCloneAllocs: Clone allocates its queue and nothing else; CloneInto
// a destination whose queue has the capacity allocates nothing.
func TestCloneAllocs(t *testing.T) {
	s := Initial(Params{LinkRate: 12000, CrossRate: 8400, BufferCapBits: 96000, InitFullBits: 60000}, true)
	if s.QLen() == 0 {
		t.Fatal("the source has no queue to copy")
	}
	var sink State
	if n := testing.AllocsPerRun(100, func() { sink = s.Clone() }); n != 1 {
		t.Errorf("Clone: %v allocations, want 1 (its queue)", n)
	}
	dst := s.Clone()
	if n := testing.AllocsPerRun(100, func() { s.CloneInto(&dst) }); n != 0 {
		t.Errorf("CloneInto at capacity: %v allocations, want 0", n)
	}
	_ = sink
}
