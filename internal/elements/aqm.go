package elements

import (
	"math"
	"modelcc/internal/packet"
	"modelcc/internal/sim"
)

// The paper's §3.5 lists "active queue management" and "non-FIFO
// scheduling" as elements the language will need. This file provides
// both: a Random Early Detection buffer and a deficit-round-robin fair
// queue. Both satisfy Dequeuer, so either can replace the tail-drop
// Buffer in front of a Throughput.

// REDBuffer is a Random Early Detection queue (Floyd & Jacobson 1993
// style): below minBits the queue behaves like a FIFO; between minBits
// and maxBits arriving packets are dropped with probability rising
// linearly to maxP; above maxBits every arrival is dropped. The average
// queue size uses an exponentially weighted moving average with weight w.
type REDBuffer struct {
	loop    *sim.Loop
	capBits int64
	minBits int64
	maxBits int64
	maxP    float64
	w       float64

	usedBits int64
	avgBits  float64
	q        []packet.Packet
	drain    *Throughput

	// Drops counts discarded packets by flow; EarlyDrops counts the
	// subset dropped probabilistically rather than by overflow.
	Drops      map[packet.FlowID]int
	EarlyDrops int
}

// NewREDBuffer returns a RED queue. capBits bounds the physical queue;
// minBits/maxBits are the RED thresholds on the averaged queue size.
func NewREDBuffer(loop *sim.Loop, capBits, minBits, maxBits int64, maxP float64) *REDBuffer {
	if minBits > maxBits || maxBits > capBits {
		// Invariant: construction-time misuse, unreachable from network
		// input.
		panic("elements: RED thresholds must satisfy min <= max <= cap")
	}
	return &REDBuffer{
		loop:    loop,
		capBits: capBits,
		minBits: minBits,
		maxBits: maxBits,
		maxP:    maxP,
		w:       0.002,
		Drops:   make(map[packet.FlowID]int),
	}
}

// AttachDrain connects the Throughput element that serves this queue.
func (b *REDBuffer) AttachDrain(t *Throughput) {
	b.drain = t
	t.src = b
}

// UsedBits reports the bits currently queued.
func (b *REDBuffer) UsedBits() int64 { return b.usedBits }

// AvgBits reports the EWMA queue size RED thresholds against.
func (b *REDBuffer) AvgBits() float64 { return b.avgBits }

// Receive implements Node.
func (b *REDBuffer) Receive(p packet.Packet) {
	b.avgBits = (1-b.w)*b.avgBits + b.w*float64(b.usedBits)
	drop := false
	early := false
	switch {
	case b.usedBits+p.Bits() > b.capBits:
		drop = true
	case b.avgBits >= float64(b.maxBits):
		drop, early = true, true
	case b.avgBits > float64(b.minBits):
		frac := (b.avgBits - float64(b.minBits)) / math.Max(1, float64(b.maxBits-b.minBits))
		if b.loop.Rand().Float64() < frac*b.maxP {
			drop, early = true, true
		}
	}
	if drop {
		b.Drops[p.Flow]++
		if early {
			b.EarlyDrops++
		}
		return
	}
	b.q = append(b.q, p)
	b.usedBits += p.Bits()
	if b.drain != nil {
		b.drain.Kick()
	}
}

// Dequeue implements Dequeuer.
func (b *REDBuffer) Dequeue() (packet.Packet, bool) {
	if len(b.q) == 0 {
		return packet.Packet{}, false
	}
	p := b.q[0]
	copy(b.q, b.q[1:])
	b.q = b.q[:len(b.q)-1]
	b.usedBits -= p.Bits()
	return p, true
}

// FairQueue is a deficit-round-robin scheduler with one sub-queue per
// flow and a shared capacity in bits. Each flow's sub-queue is tail-drop
// against its fair share of the capacity; service alternates between
// non-empty sub-queues with a per-packet quantum, so a flooding flow
// cannot starve a polite one — the non-FIFO scheduling of §3.5.
type FairQueue struct {
	capBits  int64
	usedBits int64
	queues   map[packet.FlowID][]packet.Packet
	order    []packet.FlowID
	nextIdx  int
	drain    *Throughput

	// bits caches each flow's queued occupancy and active counts the
	// flows with queued packets, so admission is O(1) in the flow count
	// — with hundreds of fleet senders behind one bottleneck, the
	// original recompute-by-iteration cost dominated the run.
	bits   map[packet.FlowID]int64
	active int

	// Drops counts discarded packets by flow.
	Drops map[packet.FlowID]int
}

// NewFairQueue returns a fair queue with the given total capacity.
func NewFairQueue(capBits int64) *FairQueue {
	return &FairQueue{
		capBits: capBits,
		queues:  make(map[packet.FlowID][]packet.Packet),
		bits:    make(map[packet.FlowID]int64),
		Drops:   make(map[packet.FlowID]int),
	}
}

// AttachDrain connects the Throughput element that serves this queue.
func (f *FairQueue) AttachDrain(t *Throughput) {
	f.drain = t
	t.src = f
}

// UsedBits reports the bits currently queued across all flows.
func (f *FairQueue) UsedBits() int64 { return f.usedBits }

// Len reports the packets currently queued across all flows.
func (f *FairQueue) Len() int {
	n := 0
	for _, fl := range f.order {
		n += len(f.queues[fl])
	}
	return n
}

// activeFlows reports the number of flows with queued packets.
func (f *FairQueue) activeFlows() int { return f.active }

func (f *FairQueue) flowBits(flow packet.FlowID) int64 { return f.bits[flow] }

// addBits adjusts a flow's cached occupancy and the active-flow count.
func (f *FairQueue) addBits(flow packet.FlowID, delta int64) {
	before := f.bits[flow]
	after := before + delta
	f.bits[flow] = after
	f.usedBits += delta
	if before == 0 && after > 0 {
		f.active++
	} else if before > 0 && after == 0 {
		f.active--
	}
}

// Receive implements Node. A packet is accepted if the flow's occupancy
// stays within its fair share (capacity divided by the number of active
// flows including this one). When the shared capacity is exhausted by
// other flows, the queue pushes out the tail of the longest flow's
// sub-queue ("longest queue drop"), so a flooding flow cannot lock a
// polite flow out of its share.
func (f *FairQueue) Receive(p packet.Packet) {
	if _, ok := f.queues[p.Flow]; !ok {
		f.queues[p.Flow] = nil
		f.order = append(f.order, p.Flow)
	}
	active := f.activeFlows()
	if len(f.queues[p.Flow]) == 0 {
		active++
	}
	share := f.capBits / int64(active)
	if f.flowBits(p.Flow)+p.Bits() > share {
		f.Drops[p.Flow]++
		return
	}
	// Make room by pushing out the tail of the longest sub-queue; if the
	// arriving flow already holds the longest queue, accepting would be
	// pointless, so drop the arrival instead.
	for f.usedBits+p.Bits() > f.capBits {
		victim, victimBits := p.Flow, f.flowBits(p.Flow)+p.Bits()
		for _, fl := range f.order {
			if b := f.flowBits(fl); b > victimBits {
				victim, victimBits = fl, b
			}
		}
		if victim == p.Flow {
			f.Drops[p.Flow]++
			return
		}
		q := f.queues[victim]
		out := q[len(q)-1]
		f.queues[victim] = q[:len(q)-1]
		f.addBits(victim, -out.Bits())
		f.Drops[victim]++
	}
	f.queues[p.Flow] = append(f.queues[p.Flow], p)
	f.addBits(p.Flow, p.Bits())
	if f.drain != nil {
		f.drain.Kick()
	}
}

// Dequeue implements Dequeuer with round-robin service across flows.
func (f *FairQueue) Dequeue() (packet.Packet, bool) {
	if f.usedBits == 0 || len(f.order) == 0 {
		return packet.Packet{}, false
	}
	for i := 0; i < len(f.order); i++ {
		idx := (f.nextIdx + i) % len(f.order)
		flow := f.order[idx]
		q := f.queues[flow]
		if len(q) == 0 {
			continue
		}
		p := q[0]
		copy(q, q[1:])
		f.queues[flow] = q[:len(q)-1]
		f.addBits(flow, -p.Bits())
		f.nextIdx = (idx + 1) % len(f.order)
		return p, true
	}
	return packet.Packet{}, false
}
