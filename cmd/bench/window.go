package main

import (
	"fmt"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
)

// nSlices is how many equal pieces a fleet window is run in. Driving a
// loop to an intermediate instant fires nothing extra, so slicing is
// result-neutral; it gives the traced run instants at which to sample
// queue depths, and gives every run a reading one third of the way in
// (refSlice), where the short reference runs stop. Each slice is driven
// in refPerSlice steps, with the reference kernel sampled between them:
// the host's speed changes within a slice, and a dozen samples a repeat
// follow it only half as well as four dozen.
const (
	nSlices     = 12
	refSlice    = nSlices / 3
	refPerSlice = 4
)

// mark is a reading taken between two slices.
type mark struct {
	wall, cpu float64 // seconds of the window's work so far, as read
	pending   int     // events scheduled across the runtime's loops
	fillFrac  float64 // bottleneck buffer occupancy
}

// windowRun is one timed window over a fleet runtime.
type windowRun struct {
	opened    time.Time // when set-up ended and the window opened
	cost      hostCost
	slow      slowdown // the host's, while the window was open
	out       outcome
	latencies []int64
	marks     [nSlices + 1]mark
	last      int    // index of the last mark taken
	refDigest uint64 // at refSlice
	refOut    outcome
	digest    uint64 // at the window's end (or refSlice, if it stopped there)
	before    ledger
	after     ledger
	recs      []*recorder
	sampled   []sample
	supStart  float64 // mean support per member when the window opened
	supEnd    float64
	conserved error
}

// sample is one sender's support copied a third of the way into a
// traced window, for the micro-timings that follow it.
type sample struct {
	sup []belief.Hypothesis
	now time.Duration
}

// runFleetWindow instruments h's members, drives h through the warm-up
// [0, warm) and then times [warm, end) in slices. snap, when non-zero,
// rounds slice boundaries to its grid (the shard coordinator's Δ). With
// refOnly the run stops at refSlice. A caller that wants the runtime's
// construction inside the window starts the stopwatch itself and passes
// it as sw; otherwise sw is nil and the window opens after the warm-up.
func runFleetWindow(h *host, p params, sw *stopwatch, warm, end, snap time.Duration, refOnly bool) *windowRun {
	w := &windowRun{}
	for i, m := range h.members() {
		var rec *recorder
		if p.traced {
			rec = &recorder{flow: uint32(i), wake: -1, delayUpdate: p.delayUpdate, delayProb: p.delayProbe}
			w.recs = append(w.recs, rec)
		}
		instrument(m.Sender, rec)
	}
	h.runTo(warm)

	members := h.members()
	w.supStart = meanSupport(h)
	epoch := time.Now()
	for i, m := range members {
		m.Sender.Guard.Latencies = m.Sender.Guard.Latencies[:0]
		if p.traced {
			w.recs[i].epoch = epoch
			w.recs[i].reset()
		}
	}

	w.before = h.ledger()
	w.opened = time.Now()
	if sw == nil {
		sw = begin()
	}
	last := nSlices
	if refOnly {
		last = refSlice
	}
	sw.sampleRef()
	w.marks[0] = h.mark(sw)
	stop := warm
	for k := 1; k <= last; k++ {
		for j := 1 - refPerSlice; j <= 0; j++ {
			stop = warm + time.Duration(int64(end-warm)*int64(k*refPerSlice+j)/(nSlices*refPerSlice))
			if snap > 0 {
				stop = (stop + snap/2) / snap * snap
			}
			h.runTo(stop)
			sw.sampleRef()
		}
		w.marks[k] = h.mark(sw)
		if k == refSlice {
			w.refDigest = h.digest()
			w.refOut = h.since(w.before, h.ledger(), stop-warm)
			if p.traced {
				w.sampled = sampleSupports(members)
			}
		}
	}
	w.last = last
	w.cost = sw.end()
	w.slow = sw.slowdown()
	w.after = h.ledger()
	w.out = h.since(w.before, w.after, stop-warm)
	w.digest = h.digest()
	w.supEnd = meanSupport(h)
	w.conserved = h.conserved()
	for i, m := range h.members() {
		w.latencies = append(w.latencies, m.Sender.Guard.Latencies...)
		if p.traced {
			w.recs[i].closeSpans(m.Sender.Guard.Latencies)
		}
	}
	return w
}

// sampleSupports copies the supports of eight senders spread over the
// fleet, for the micro-timings that follow a traced window.
func sampleSupports(members []*fleet.Member) []sample {
	var out []sample
	for i := 0; i < len(members); i += (len(members) + 7) / 8 {
		out = append(out, cloneSupport(members[i].Sender.Belief))
	}
	return out
}

// cloneSupport copies a belief's support, states included.
func cloneSupport(b belief.Belief) sample {
	sup := append([]belief.Hypothesis(nil), b.Support()...)
	for j := range sup {
		sup[j].S = sup[j].S.Clone()
	}
	return sample{sup: sup, now: b.Now()}
}

// units returns the wall and CPU seconds, at the reference host speed,
// of each unit of the window's work: what preceded the first slice (a
// runtime built inside the window), then each slice.
func (w *windowRun) units() (wall, cpu []float64) {
	wall, cpu = []float64{w.marks[0].wall / w.slow.wall}, []float64{w.marks[0].cpu / w.slow.cpu}
	for k := 1; k <= w.last; k++ {
		wall = append(wall, (w.marks[k].wall-w.marks[k-1].wall)/w.slow.wall)
		cpu = append(cpu, (w.marks[k].cpu-w.marks[k-1].cpu)/w.slow.cpu)
	}
	return wall, cpu
}

func (h *host) mark(sw *stopwatch) mark {
	wall, cpu := sw.elapsed()
	m := mark{
		wall:     wall,
		cpu:      cpu,
		fillFrac: float64(h.buffer.UsedBits()) / float64(h.buffer.CapacityBits()),
	}
	for _, lp := range h.loops {
		m.pending += lp.Pending()
	}
	return m
}

func meanSupport(h *host) float64 {
	var n, members int
	for _, m := range h.members() {
		if m != nil {
			n += len(m.Sender.Belief.Support())
			members++
		}
	}
	return float64(n) / float64(members)
}

// sameOutcome reports the first field in which two outcomes differ.
func sameOutcome(a, b outcome) error {
	switch {
	case a.Utility != b.Utility:
		return fmt.Errorf("utility %v vs %v", a.Utility, b.Utility)
	case a.DeliveredBits != b.DeliveredBits:
		return fmt.Errorf("delivered bits %v vs %v", a.DeliveredBits, b.DeliveredBits)
	case a.DelaySum != b.DelaySum || a.Acks != b.Acks:
		return fmt.Errorf("delay %v over %d acks vs %v over %d", a.DelaySum, a.Acks, b.DelaySum, b.Acks)
	case a.Drops != b.Drops || a.Offered != b.Offered:
		return fmt.Errorf("drops %d of %d vs %d of %d", a.Drops, a.Offered, b.Drops, b.Offered)
	case a.Wakes != b.Wakes:
		return fmt.Errorf("wakes %d vs %d", a.Wakes, b.Wakes)
	case a.Decisions != b.Decisions:
		return fmt.Errorf("decisions %d vs %d", a.Decisions, b.Decisions)
	case len(a.PerFlow) != len(b.PerFlow):
		return fmt.Errorf("flows %d vs %d", len(a.PerFlow), len(b.PerFlow))
	}
	for i := range a.PerFlow {
		if a.PerFlow[i] != b.PerFlow[i] {
			return fmt.Errorf("flow %d delivered %v vs %v", i, a.PerFlow[i], b.PerFlow[i])
		}
	}
	return nil
}
