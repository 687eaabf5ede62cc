// Package model implements the inference-side network model: a compact,
// cloneable, deterministic-given-outcomes automaton over the paper's
// element language (§3.1–3.2).
//
// The belief (internal/belief) needs thousands of cheap copies of "a
// possible network". A closure-based discrete-event simulator is hostile
// to cloning, so this package represents one network hypothesis as a
// value type — State — holding the dynamic state of the Figure 2 element
// composition and a pointer to its unknown parameters (Params), which
// every hypothesis of one prior grid point shares:
//
//	PINGER(r) -> INTERMITTENT(t) -> \
//	                                 BUFFER(cap, fullness) -> THROUGHPUT(c) -> LOSS(p) -> receivers
//	ISENDER   ------------------> /
//
// Nondeterminism is surfaced, not drawn: inference enumerates weighted
// branches at pinger switch opportunities (AdvanceEnum), while ground
// truth (Truth) samples the same mechanics from a seeded RNG. Stochastic
// loss is modeled at the "last mile", after the queue and link, so — as
// the paper observes (§3.2) — its consequences do not linger in the
// network state: loss never forks a State, it only weights the
// consistency of observations (belief) or gates actual deliveries
// (truth).
package model

import (
	"time"

	"modelcc/internal/packet"
	"modelcc/internal/units"
)

// Params holds the static unknowns of one network hypothesis — the
// quantities the paper's prior ranges over (§4). Clocks are synchronized,
// as the paper assumes: the receiver-skew extension it suggests (§3.4) is
// not modelled.
type Params struct {
	// LinkRate is c, the bottleneck THROUGHPUT speed in bits/second.
	LinkRate units.BitRate
	// CrossRate is the PINGER's rate in bits/second. The paper expresses
	// it as a fraction of c (r ∈ [0.4c, 0.7c]).
	CrossRate units.BitRate
	// MeanSwitch is t, the INTERMITTENT gate's mean time to switch.
	// Zero means the gate never switches.
	MeanSwitch time.Duration
	// LossProb is p, the last-mile LOSS element's drop probability.
	LossProb float64
	// BufferCapBits is the BUFFER capacity in bits.
	BufferCapBits int64
	// InitFullBits is the BUFFER's initial fullness in bits (filler
	// packets of unknown provenance, quantized to whole packets).
	InitFullBits int64
	// PktBytes is the uniform packet size (§3.2); 0 means the 1500-byte
	// default.
	PktBytes int
	// CrossPktBits is the modeled size of one cross-traffic emission; 0
	// means one uniform packet (the paper's PINGER). The fleet
	// experiments raise it so a sender modeling hundreds of competitors
	// aggregates their traffic into coarse chunks at the same rate:
	// hypothesis advance cost stays bounded as the competitor count
	// grows, at the price of delivery-time quantization the soft
	// observation likelihood absorbs.
	CrossPktBits int64
}

// PktBits reports the uniform packet size in bits.
func (p Params) PktBits() int64 {
	if p.PktBytes <= 0 {
		return packet.DefaultSizeBits
	}
	return units.BytesToBits(p.PktBytes)
}

// CrossBits reports the size of one modeled cross-traffic emission.
func (p Params) CrossBits() int64 {
	if p.CrossPktBits > 0 {
		return p.CrossPktBits
	}
	return p.PktBits()
}

// CrossInterval reports the PINGER emission interval, one cross
// emission's bits at CrossRate. A non-positive CrossRate means no cross
// traffic; the interval is then Forever.
func (p Params) CrossInterval() time.Duration {
	if p.CrossRate <= 0 {
		return units.Forever
	}
	return units.TransmitTime(p.CrossBits(), p.CrossRate)
}

// ServiceTime reports how long one packet occupies the bottleneck link.
func (p Params) ServiceTime() time.Duration {
	return units.TransmitTime(p.PktBits(), p.LinkRate)
}

// record is a hypothesis's parameters as its states hold them: built
// once per grid point (Prior.Enumerate), per standalone state (Initial)
// or per distinct value in a checkpoint, and shared by pointer between
// every state built from it and all their clones and forks. It is never
// written after newRecord, its one constructor, returns it — which is
// what lets shards read a shared record without a lock — so a state
// whose parameters change gets a fresh one (State.SetParams). newRecord
// also computes, once, the constants the advance loop and the planner
// derive from Params; the record's PktBits, CrossBits, CrossInterval and
// ServiceTime return them in place of Params' own, with the same values.
type record struct {
	Params
	pktBits, crossBits         int64
	pktSvc, crossSvc, crossIvl time.Duration
}

// Record names the parameter record for packages that keep one beside a
// state rather than in it, as the belief does for each member of a class
// (State.SameClass). It is read-only there too.
type Record = record

// Dynamics returns p without what the advance never reads — LossProb and
// InitFullBits — so that two hypotheses advance alike only if their
// Dynamics are equal (State.SameClass). Every derived constant is a
// function of the rest.
func (p Params) Dynamics() Params {
	p.LossProb, p.InitFullBits = 0, 0
	return p
}

// sameDynamics reports whether r and o drive Run and Enumerate alike.
func (r *record) sameDynamics(o *record) bool {
	return r == o || r.Params.Dynamics() == o.Params.Dynamics()
}

func newRecord(p Params) *record {
	r := &record{Params: p, pktBits: p.PktBits(), crossBits: p.CrossBits(), crossIvl: p.CrossInterval()}
	r.pktSvc = units.TransmitTime(r.pktBits, p.LinkRate)
	r.crossSvc = units.TransmitTime(r.crossBits, p.LinkRate)
	return r
}

// PktBits is Params.PktBits.
func (r *record) PktBits() int64 { return r.pktBits }

// CrossBits is Params.CrossBits.
func (r *record) CrossBits() int64 { return r.crossBits }

// CrossInterval is Params.CrossInterval.
func (r *record) CrossInterval() time.Duration { return r.crossIvl }

// ServiceTime is Params.ServiceTime.
func (r *record) ServiceTime() time.Duration { return r.pktSvc }

// serviceTime reports how long a packet of the given size occupies the
// link: a lookup for the two sizes a hypothesis serves, own packets and
// cross chunks (TransmitTime's float division is measurable at fleet
// scale), the division for any other.
func (r *record) serviceTime(bits int64) time.Duration {
	switch bits {
	case r.pktBits:
		return r.pktSvc
	case r.crossBits:
		return r.crossSvc
	}
	return units.TransmitTime(bits, r.LinkRate)
}

// Fig2Actual returns the true network parameters of the paper's §4
// experiment: c = 12,000 bits/s, r = 0.7c, p = 0.2, a 96,000-bit buffer
// starting empty. MeanSwitch is left at the prior's 100 s even though the
// true gate is a deterministic square wave — reproducing the paper's
// deliberate model mismatch.
func Fig2Actual() Params {
	return Params{
		LinkRate:      12000,
		CrossRate:     0.7 * 12000,
		MeanSwitch:    100 * time.Second,
		LossProb:      0.2,
		BufferCapBits: 96000,
		InitFullBits:  0,
	}
}
