package belief

import (
	"modelcc/internal/units"
)

// Estimates summarizes a posterior for experiment reporting: posterior
// means of the unknown parameters and the probability the pinger is
// currently on. The ISENDER itself never uses point estimates — it plans
// against the full distribution — but the figures report them.
type Estimates struct {
	// N is the number of distinct hypotheses.
	N int
	// PPingerOn is the posterior probability the cross-traffic gate is
	// connected.
	PPingerOn float64
	// ELinkRate is the posterior mean link speed.
	ELinkRate units.BitRate
	// ECrossRate is the posterior mean cross-traffic rate.
	ECrossRate units.BitRate
	// ELossProb is the posterior mean stochastic loss rate.
	ELossProb float64
	// EBufferCap is the posterior mean buffer capacity in bits.
	EBufferCap float64
	// EQueueBits is the posterior mean current queue occupancy in bits
	// (including the in-service packet).
	EQueueBits float64
	// MAPWeight is the weight of the heaviest hypothesis.
	MAPWeight float64
}

// Summarize computes posterior summaries over a belief's view.
func Summarize(v View) Estimates {
	var e Estimates
	e.N = v.Len()
	for i := range e.N {
		m := v.Member(i)
		s, w := m.S, m.W
		if s.PingerOn {
			e.PPingerOn += w
		}
		e.ELinkRate += units.BitRate(w * float64(m.P.LinkRate))
		e.ECrossRate += units.BitRate(w * float64(m.P.CrossRate))
		e.ELossProb += w * m.P.LossProb
		e.EBufferCap += w * float64(m.P.BufferCapBits)
		e.EQueueBits += w * float64(s.SystemBits())
		if w > e.MAPWeight {
			e.MAPWeight = w
		}
	}
	return e
}
