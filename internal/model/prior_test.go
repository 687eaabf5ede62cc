package model

import (
	"testing"
	"time"
)

func TestPriorRangeValues(t *testing.T) {
	r := PriorRange{10000, 16000, 7}
	vals := r.Values()
	if len(vals) != 7 {
		t.Fatalf("len = %d", len(vals))
	}
	if vals[0] != 10000 || vals[6] != 16000 {
		t.Errorf("endpoints = %v, %v", vals[0], vals[6])
	}
	if vals[2] != 12000 {
		t.Errorf("grid must include the true value 12000, got %v", vals[2])
	}
	// Degenerate ranges.
	if got := (PriorRange{5, 5, 3}).Values(); len(got) != 1 || got[0] != 5 {
		t.Errorf("degenerate range = %v", got)
	}
	if got := (PriorRange{5, 9, 0}).Values(); len(got) != 1 || got[0] != 5 {
		t.Errorf("N=0 range = %v", got)
	}
}

func TestFig3PriorContainsTruth(t *testing.T) {
	states, w := Fig3Prior().Enumerate()
	if len(states) == 0 {
		t.Fatal("empty prior")
	}
	wantN := 7 * 4 * 5 * 4 * 4 * 2
	if len(states) != wantN {
		t.Errorf("prior size = %d, want %d", len(states), wantN)
	}
	if wTotal := w * float64(len(states)); wTotal < 0.999999 || wTotal > 1.000001 {
		t.Errorf("weights sum to %v", wTotal)
	}
	truth := Fig2Actual()
	found := false
	for _, s := range states {
		if s.P.LinkRate == truth.LinkRate &&
			s.P.CrossRate == truth.CrossRate &&
			s.P.LossProb == truth.LossProb &&
			s.P.BufferCapBits == truth.BufferCapBits &&
			s.P.InitFullBits == truth.InitFullBits &&
			s.PingerOn {
			found = true
			break
		}
	}
	if !found {
		t.Error("prior does not include the true Fig2 parameters (paper requires it)")
	}
}

func TestPriorParamsIDSharedAcrossGateStates(t *testing.T) {
	states, _ := Fig3Prior().Enumerate()
	// Consecutive on/off pairs share a ParamsID and its record but differ
	// in gate state.
	byID := map[int32][]State{}
	for _, s := range states {
		byID[s.ParamsID] = append(byID[s.ParamsID], s)
	}
	for id, group := range byID {
		if len(group) != 2 {
			t.Fatalf("ParamsID %d has %d states, want 2 (on/off)", id, len(group))
		}
		if group[0].PingerOn == group[1].PingerOn {
			t.Fatalf("ParamsID %d gate states not distinct", id)
		}
		if group[0].P != group[1].P {
			t.Fatalf("ParamsID %d gate states hold two parameter records", id)
		}
	}
}

func TestTruthSquareWaveTogglesDeterministically(t *testing.T) {
	p := Fig2Actual()
	tr := NewTruth(p, true, GateSquareWave, 100*time.Second, newTestRand())
	tr.AdvanceTo(50*time.Second, nil)
	if !tr.PingerOn() {
		t.Error("gate off before first half period")
	}
	tr.AdvanceTo(150*time.Second, nil)
	if tr.PingerOn() {
		t.Error("gate on during second half period")
	}
	tr.AdvanceTo(250*time.Second, nil)
	if !tr.PingerOn() {
		t.Error("gate off during third half period")
	}
}

func TestTruthLossRate(t *testing.T) {
	p := fixedParams()
	p.LossProb = 0.2
	tr := NewTruth(p, false, GateFixed, 0, newTestRand())
	var sends []Send
	// One packet per 2 seconds: no queueing, 5000 packets.
	for i := int64(0); i < 5000; i++ {
		sends = append(sends, Send{Seq: i, At: time.Duration(i) * 2 * time.Second})
	}
	evs := tr.AdvanceTo(12000*time.Second, sends)
	var delivered, lost int
	for _, e := range evs {
		switch e.Kind {
		case OwnDelivered:
			delivered++
		case OwnLost:
			lost++
		}
	}
	if delivered+lost != 5000 {
		t.Fatalf("delivered+lost = %d, want 5000", delivered+lost)
	}
	frac := float64(lost) / 5000
	if frac < 0.17 || frac > 0.23 {
		t.Errorf("empirical loss = %.3f, want ~0.2", frac)
	}
	if tr.OwnDeliveredN != delivered || tr.OwnLostN != lost {
		t.Error("truth stats disagree with events")
	}
}

func TestTruthMemorylessSwitches(t *testing.T) {
	p := fixedParams()
	p.CrossRate = 8400
	p.MeanSwitch = 10 * time.Second
	tr := NewTruth(p, true, GateMemoryless, 0, newTestRand())
	changes := 0
	last := tr.PingerOn()
	for i := 0; i < 100; i++ {
		tr.AdvanceTo(time.Duration(i+1)*10*time.Second, nil)
		if tr.PingerOn() != last {
			changes++
			last = tr.PingerOn()
		}
	}
	if changes < 10 {
		t.Errorf("memoryless gate changed %d times over 1000s with 10s mean; want many", changes)
	}
}

func TestTruthFixedNeverSwitches(t *testing.T) {
	p := fixedParams()
	p.CrossRate = 8400
	p.MeanSwitch = time.Second
	tr := NewTruth(p, true, GateFixed, 0, newTestRand())
	tr.AdvanceTo(1000*time.Second, nil)
	if !tr.PingerOn() {
		t.Error("fixed gate switched")
	}
}
