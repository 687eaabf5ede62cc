package model

import (
	"time"

	"modelcc/internal/units"
)

// PriorRange describes a discretized uniform range, the paper's prior
// shape ("a discretized uniform distribution over the following ranges",
// §4).
type PriorRange struct {
	// Lo and Hi are the inclusive bounds.
	Lo, Hi float64
	// N is the number of grid points; N <= 1 collapses to Lo.
	N int
}

// Values enumerates the grid points of the range.
func (r PriorRange) Values() []float64 {
	if r.N <= 1 || r.Hi <= r.Lo {
		return []float64{r.Lo}
	}
	out := make([]float64, r.N)
	step := (r.Hi - r.Lo) / float64(r.N-1)
	for i := range out {
		out[i] = r.Lo + float64(i)*step
	}
	return out
}

// Prior specifies the paper's §4 prior: independent discretized uniform
// ranges over the unknown parameters. CrossFrac ranges over r as a
// fraction of the hypothesis's own c, matching "0.4c <= r <= 0.7c".
// FullnessSteps discretizes initial fullness as fractions of each
// hypothesis's buffer capacity ("0 <= x <= buffer capacity").
type Prior struct {
	// LinkRate ranges over c in bits/second.
	LinkRate PriorRange
	// CrossFrac ranges over r/c.
	CrossFrac PriorRange
	// LossProb ranges over p.
	LossProb PriorRange
	// BufferCapBits ranges over the buffer capacity.
	BufferCapBits PriorRange
	// FullnessSteps is the number of initial-fullness grid points from
	// empty to full (inclusive); values are quantized to whole packets.
	FullnessSteps int
	// MeanSwitch is the assumed gate mean time to switch (the paper
	// fixes it at 100 s rather than ranging over it).
	MeanSwitch time.Duration
	// PingerMaybeOff, when true, also enumerates hypotheses whose gate
	// starts disconnected.
	PingerMaybeOff bool
	// CrossPktBits sets Params.CrossPktBits on every hypothesis: the
	// modeled size of one cross-traffic emission (0 = one uniform
	// packet). Fleet priors raise it so a sender modeling hundreds of
	// competitors advances hypotheses in coarse aggregate chunks.
	CrossPktBits int64
	// SwitchTick sets the spacing of discretized gate-toggle
	// opportunities on every hypothesis (0 = DefaultSwitchTick).
	// Inference cost grows with the branches the toggle grid forks;
	// fleet priors coarsen it because a fleet multiplies that cost by
	// the sender count.
	SwitchTick time.Duration
}

// Fig3Prior returns the paper's experiment prior (§4):
//
//	c        ∈ [10000, 16000]   (7 points)
//	r        ∈ [0.4c, 0.7c]     (4 points)
//	t        =  100 s
//	p        ∈ [0, 0.2]         (5 points)
//	capacity ∈ [72000, 108000]  (4 points)
//	fullness ∈ [0, capacity]    (4 points, whole packets)
//
// The grid widths are our choice — the paper reports the ranges but not
// the discretization density. The true Fig2Actual() point is on the grid,
// as the paper requires ("initialized with a prior that includes, as one
// possibility, the true value of most of the parameters").
func Fig3Prior() Prior {
	return Prior{
		LinkRate:       PriorRange{10000, 16000, 7},
		CrossFrac:      PriorRange{0.4, 0.7, 4},
		LossProb:       PriorRange{0, 0.2, 5},
		BufferCapBits:  PriorRange{72000, 108000, 4},
		FullnessSteps:  4,
		MeanSwitch:     100 * time.Second,
		PingerMaybeOff: true,
	}
}

// Enumerate expands the prior into equally weighted initial hypothesis
// states, assigning consecutive ParamsIDs. The returned weight applies to
// every state (they are uniform).
func (pr Prior) Enumerate() ([]State, float64) {
	var states []State
	var id int32
	gateStates := []bool{true}
	if pr.PingerMaybeOff {
		gateStates = []bool{true, false}
	}
	fullSteps := pr.FullnessSteps
	if fullSteps < 1 {
		fullSteps = 1
	}
	for _, c := range pr.LinkRate.Values() {
		for _, frac := range pr.CrossFrac.Values() {
			for _, p := range pr.LossProb.Values() {
				for _, capBits := range pr.BufferCapBits.Values() {
					for fi := 0; fi < fullSteps; fi++ {
						var full int64
						if fullSteps > 1 {
							full = int64(float64(capBits) * float64(fi) / float64(fullSteps-1))
						}
						params := Params{
							LinkRate:      units.BitRate(c),
							CrossRate:     units.BitRate(frac * c),
							MeanSwitch:    pr.MeanSwitch,
							LossProb:      p,
							BufferCapBits: int64(capBits),
							InitFullBits:  full,
							CrossPktBits:  pr.CrossPktBits,
						}
						// All gate-start variants share one ParamsID
						// and one record: the gate state is dynamic, so
						// branches that started differently but
						// converge may merge.
						rec := newRecord(params)
						for _, on := range gateStates {
							s := initial(rec, on)
							s.ParamsID = id
							if pr.SwitchTick > 0 {
								s.SwitchTick = pr.SwitchTick
								s.NextToggle = pr.SwitchTick
							}
							states = append(states, s)
						}
						id++
					}
				}
			}
		}
	}
	if len(states) == 0 {
		return nil, 0
	}
	return states, 1 / float64(len(states))
}
