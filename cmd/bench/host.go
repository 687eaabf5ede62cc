package main

import (
	"fmt"
	"time"

	"modelcc/internal/elements"
	"modelcc/internal/fleet"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/shard"
	"modelcc/internal/sim"
)

// host is the read surface fleet.Fleet and shard.Fleet have in common,
// so one set of ledgers, checks and decorators serves both runtimes.
type host struct {
	members  func() []*fleet.Member
	buffer   *elements.Buffer
	recv     *elements.Receiver
	link     *elements.Throughput
	caches   *planner.CacheStripes
	loops    []*sim.Loop
	inFlight func(packet.FlowID) int64
	digest   func() uint64
	// runTo drives the runtime to an absolute virtual time.
	runTo func(time.Duration)
	plan  planner.Config
}

func fleetHost(fl *fleet.Fleet) *host {
	return &host{
		members:  fl.MemberSlots,
		buffer:   fl.Buffer,
		recv:     fl.Recv,
		link:     fl.Link,
		caches:   fl.Caches,
		loops:    []*sim.Loop{fl.Loop},
		inFlight: fl.InFlight,
		digest:   func() uint64 { return shard.DigestFleet(fl) },
		runTo:    func(t time.Duration) { fl.Loop.Run(t) },
		plan:     fl.MemberPlanConfig(),
	}
}

func shardHost(sf *shard.Fleet) *host {
	loops := []*sim.Loop{sf.BLoop}
	for _, p := range sf.Parts {
		loops = append(loops, p.Loop)
	}
	return &host{
		members:  sf.MemberSlots,
		buffer:   sf.Buffer,
		recv:     sf.Recv,
		link:     sf.Link,
		caches:   sf.Caches,
		loops:    loops,
		inFlight: sf.InFlight,
		digest:   sf.Digest,
		runTo:    sf.Run,
		plan:     sf.Parts[0].MemberPlanConfig(),
	}
}

// ledger is a fleet's cumulative accounting at one virtual instant;
// a window's outcome is the difference of two.
type ledger struct {
	utility         float64
	delaySum        float64
	acks            int64
	wakes           int64
	delivered       []int
	drops, enqueued int
	fired           uint64
	guards          guardSum
	cacheHits       int
	cacheMisses     int
}

// guardSum adds up the Guard counters the benchmark reads.
type guardSum struct {
	calls, live, fallbacks, timeouts int64
}

func (h *host) ledger() ledger {
	ms := h.members()
	l := ledger{delivered: make([]int, len(ms))}
	for i, m := range ms {
		flow := packet.FlowID(i)
		l.delivered[i] = h.recv.Received[flow]
		l.drops += h.buffer.Drops[flow]
		l.enqueued += h.buffer.Enqueued[flow]
		if m == nil {
			continue
		}
		l.utility += m.Utility
		l.delaySum += m.Delay.Sum
		l.acks += m.Delay.N
		l.wakes += m.Sender.Wakes
		if g := m.Sender.Guard; g != nil {
			l.guards.calls += int64(len(g.Latencies))
			l.guards.live += g.Live
			l.guards.fallbacks += g.SafeFallbacks
			l.guards.timeouts += g.Timeouts
		}
	}
	for _, lp := range h.loops {
		l.fired += lp.Fired()
	}
	if h.caches != nil {
		l.cacheHits, l.cacheMisses = h.caches.Stats()
	}
	return l
}

// outcome is what happened in virtual time during one window. Every
// field is a function of the seed alone: two runs of one commit, traced
// or not, must produce equal outcomes.
type outcome struct {
	VSec          float64
	Utility       float64 // Σ bits·exp(−delay/κ) over packets acknowledged
	DeliveredBits float64
	LinkBits      float64 // link rate × window
	DelaySum      float64 // seconds, over packets acknowledged
	Acks          int64
	Drops         int64
	Offered       int64 // packets that arrived at the bottleneck
	PerFlow       []float64
	Wakes         int64
	Decisions     int64
	Failed        int64 // decisions from Guard rung 3/4 or a timeout
}

// since returns the outcome of the window that opened at ledger a and
// closed at ledger b.
func (h *host) since(a, b ledger, window time.Duration) outcome {
	o := outcome{
		VSec:      window.Seconds(),
		Utility:   b.utility - a.utility,
		LinkBits:  float64(h.link.Rate()) * window.Seconds(),
		DelaySum:  b.delaySum - a.delaySum,
		Acks:      b.acks - a.acks,
		Drops:     int64(b.drops - a.drops),
		Offered:   int64(b.drops - a.drops + b.enqueued - a.enqueued),
		Wakes:     b.wakes - a.wakes,
		Decisions: b.guards.calls - a.guards.calls,
		Failed:    b.guards.fallbacks - a.guards.fallbacks + b.guards.timeouts - a.guards.timeouts,
	}
	for i := range b.delivered {
		before := 0
		if i < len(a.delivered) {
			before = a.delivered[i]
		}
		d := float64(b.delivered[i] - before)
		o.PerFlow = append(o.PerFlow, d)
		o.DeliveredBits += d * packet.DefaultSizeBits
	}
	return o
}

// conserved checks, per flow, injected = delivered + dropped + in
// flight: a sender's own counts must agree with the bottleneck's, and
// what the flows have in flight must be exactly what the bottleneck
// holds.
func (h *host) conserved() error {
	var inFlight int64
	for i, m := range h.members() {
		flow := packet.FlowID(i)
		if m == nil {
			return fmt.Errorf("flow %d has no member", i)
		}
		if m.Sender.Sent != m.Injected {
			return fmt.Errorf("flow %d: sender sent %d, member injected %d", i, m.Sender.Sent, m.Injected)
		}
		if got := int64(h.recv.Received[flow]); got != m.Delay.N {
			return fmt.Errorf("flow %d: receiver counted %d deliveries, member saw %d acks", i, got, m.Delay.N)
		}
		f := h.inFlight(flow)
		if f < 0 {
			return fmt.Errorf("flow %d: %d packets in flight", i, f)
		}
		inFlight += f
	}
	held := int64(h.buffer.Len())
	if _, _, ok := h.link.InService(); ok {
		held++
	}
	if inFlight != held {
		return fmt.Errorf("flows have %d packets in flight, bottleneck holds %d", inFlight, held)
	}
	return nil
}
