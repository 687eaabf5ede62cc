package model

import (
	"math"
	"time"

	"modelcc/internal/units"
)

// Accum is the discounted sum a rollout's deliveries fold into: the one
// place the value of a delivery — bits·(1−p)·exp(−τ/κ) for an own
// packet, α times that less the optional latency penalty for a cross
// packet (utility.Config says what the parameters mean) — is computed.
// It lives here, not in utility, because the advance loop calls it
// directly: RunAccum folds each delivery in as the link completes it, and
// utility.Meter.Add feeds it a recorded event list, so the streamed and
// the recorded path cannot drift apart, and neither pays a dynamic call
// per event.
//
// A rollout's deliveries arrive in time order, so the discount is carried
// forward multiplicatively, exp(−τ₂/κ) = exp(−τ₁/κ)·exp(−Δ/κ), with the
// step factors read from a StepTable. The result differs from summing
// exp(−τ/κ) afresh only by float rounding (≲1e-12 relative over a
// rollout), far below the planner's tie band.
//
// An Accum is single-rollout state: Reset before each rollout, then
// deliveries in time order, with Take at each segment boundary.
//
// A baseline's accumulator can also carry the lagged-twin watch (Watch):
// RunAccum then notes in it the facts about a stretch that only the
// advance loop sees and that decide whether packets admitted behind the
// backlog stay a pure lag (see State.BacklogDone for the theorem) — each
// gap the link idled through, and how many extra packets deep a twin would
// still have had room for every arrival — and sums the service times of
// what it queues, which is how far BacklogDone moved.
type Accum struct {
	alpha, survive, penalty float64
	t0                      time.Duration
	steps                   *StepTable

	lastTau time.Duration
	lastD   float64
	seg     float64

	// The lagged-twin watch: twinBits > 0 arms it. level is the deepest
	// twin, in extra packets, that every arrival queued this stretch left
	// room for, top what a stretch starts from; queued sums the service
	// times of those arrivals; gaps is the gap log.
	twinBits int64
	twinLag  time.Duration
	queued   time.Duration
	level    uint8
	top      uint8
	gaps     *[]Gap
}

// Gap is one idle stretch of a watched link (Watch): it ran dry at Dry,
// with the running segment at Value (what Pending read there, and all
// through the gap), and an arrival of Bits at End refilled it
// (units.Forever: none has yet).
type Gap struct {
	Dry, End time.Duration
	Value    float64
	Bits     int64
}

// Reset points the accumulator at a new rollout: deliveries are valued
// relative to decision time t0 with cross weight alpha, survival
// probability survive and cross-latency penalty, discounted on timescale
// kappa (> 0) with step factors from steps. steps may be shared by any
// number of accumulators used from one goroutine; it is emptied here if
// it holds another κ's factors.
func (a *Accum) Reset(alpha, survive, penalty float64, t0, kappa time.Duration, steps *StepTable) {
	steps.use(kappa)
	// Field by field: the struct is past the size the compiler copies
	// inline, and a rollout resets one accumulator per candidate
	// (TestAccumResetLeavesNothing holds this list to the struct's).
	a.alpha, a.survive, a.penalty, a.t0, a.steps = alpha, survive, penalty, t0, steps
	a.lastTau, a.lastD, a.seg = 0, 1, 0
	a.twinBits, a.twinLag, a.queued, a.level, a.top, a.gaps = 0, 0, 0, 0, 0, nil
}

// Deliver folds in one delivery of bits at receiver time at, delay after
// it was enqueued.
func (a *Accum) Deliver(own bool, bits int64, at, delay time.Duration) {
	// The discount exp(−τ/κ), stepped on from the previous delivery's.
	d := 1.0
	if tau := at - a.t0; tau > 0 {
		dt := tau - a.lastTau
		if dt > 0 {
			e := &a.steps.entries[(uint64(dt)*0x9e3779b97f4a7c15)>>(64-stepTableBits)]
			if e.dt != dt {
				e.dt, e.f = dt, math.Exp(-float64(dt)*a.steps.invK)
			}
			a.lastD *= e.f
			a.lastTau = tau
		}
		d = a.lastD
		if dt < 0 {
			// Out-of-order event (should not happen in a rollout): exact.
			d = math.Exp(-float64(tau) * a.steps.invK)
		}
	}
	if own {
		a.seg += float64(bits) * a.survive * d
		return
	}
	a.seg += a.alpha * float64(bits) * a.survive * d
	if a.penalty > 0 {
		a.seg -= a.penalty * float64(bits) * delay.Seconds()
	}
}

// PacketValue is what one own delivery of bits is worth tau after the
// decision instant, survival-free — bits·e^(−tau/κ), κ in nanoseconds —
// computed afresh rather than stepped on from a previous delivery: the
// value the planner's closed forms give a candidate's packet.
func PacketValue(bits int64, tau time.Duration, kappa float64) float64 {
	return float64(bits) * math.Exp(-float64(tau)/kappa)
}

// Take returns the sum of the deliveries since the last Take and clears
// it: a segment's contribution, summed from zero in delivery order.
func (a *Accum) Take() float64 {
	u := a.seg
	a.seg = 0
	return u
}

// Pending returns what Take would, without clearing it: the running
// segment read at a pause that must not move the segment partition.
func (a *Accum) Pending() float64 { return a.seg }

// Watch arms the lagged-twin watch for twins carrying up to levels extra
// packets of bits each, whose service time on this link is lag: from here
// on RunAccum records, per arrival it queued, how deep a twin still had
// room for it — the level rule of State.BacklogDone — adds up the service
// times of what it queued, and appends to log each gap the link idles
// through, closed by the arrival that ends it and its bits; an arrival
// that outgrows the buffer there lowers the level to 0, as a twin still
// owing work would queue it. Arm it on a busy link, or with the gap under
// way appended to log, open. Reset disarms it. What it costs an advance is
// a few branches per arrival and a store or two per gap; deliveries pay
// nothing.
func (a *Accum) Watch(bits int64, lag time.Duration, levels int, log *[]Gap) {
	a.twinBits, a.twinLag, a.queued, a.gaps = bits, lag, 0, log
	a.level, a.top = uint8(levels), uint8(levels)
}

// dry notes, on an armed watch, that the link ran dry at at.
func (a *Accum) dry(at time.Duration) {
	*a.gaps = append(*a.gaps, Gap{Dry: at, Value: a.seg, End: units.Forever})
}

// refill notes, on an armed watch, an arrival of bits finding the link
// idle, under capBits: the gap under way ends.
func (a *Accum) refill(at time.Duration, bits, capBits int64) {
	if bits > capBits {
		a.level = 0
	}
	g := &(*a.gaps)[len(*a.gaps)-1]
	g.End, g.Bits = at, bits
}

// TakeWatch reports the deepest level at which the stretch since the last
// TakeWatch (or Watch) kept the lagged-twin premises — every queued
// arrival with room to spare for a twin that many packets behind, every
// arrival ending a gap within the buffer; 0 when not even one — and starts
// the next stretch. Whether the link idled is the gap log's to say.
func (a *Accum) TakeWatch() (level int) {
	level = int(a.level)
	a.level = a.top
	return level
}

// TakeQueued returns the summed service times of the arrivals the armed
// watch has seen queued since the last TakeQueued (or Watch): while the
// link stays busy, exactly how far State.BacklogDone has moved.
func (a *Accum) TakeQueued() time.Duration {
	d := a.queued
	a.queued = 0
	return d
}

// StepTable memoizes the step factors exp(−Δ/κ) of one timescale κ in a
// small direct-mapped table. Delivery times in a rollout sit on a handful
// of lattices (the link's service times, the pinger grid), so the same Δ
// recurs constantly — within a rollout, across the baseline and
// candidates of one sweep, and across the hypotheses a pool sweeps —
// and the exp in the hot loop all but disappears. math.Exp is a pure
// function of its argument, so what the table holds, and who shares it,
// cannot change a bit of any sum. Not safe for concurrent use.
type StepTable struct {
	kappa   time.Duration
	invK    float64 // 1/κ in 1/ns
	entries [1 << stepTableBits]stepEntry
}

const stepTableBits = 6

// stepEntry is one memoized factor; the zero entry matches no step,
// because a looked-up Δ is positive.
type stepEntry struct {
	dt time.Duration
	f  float64
}

// use readies the table for timescale kappa; factors of another κ are
// dropped.
func (t *StepTable) use(kappa time.Duration) {
	if t.kappa != kappa {
		*t = StepTable{kappa: kappa, invK: 1 / float64(kappa)}
	}
}
