package elements

import "modelcc/internal/packet"

// The paper's §3.5 lists "non-FIFO scheduling" among the elements the
// language will need. This file provides a deficit-round-robin fair
// queue. It satisfies Dequeuer, so it can replace the tail-drop Buffer in
// front of a Throughput.

// FairQueue is a deficit-round-robin scheduler with one sub-queue per
// flow and a shared capacity in bits. Each flow's sub-queue is tail-drop
// against its fair share of the capacity; service alternates between
// non-empty sub-queues with a per-packet quantum, so a flooding flow
// cannot starve a polite one — the non-FIFO scheduling of §3.5.
type FairQueue struct {
	capBits  int64
	usedBits int64
	queues   map[packet.FlowID]*packet.FIFO
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
		queues:  make(map[packet.FlowID]*packet.FIFO),
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
		n += f.queues[fl].Len()
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
	q := f.queues[p.Flow]
	if q == nil {
		q = new(packet.FIFO)
		f.queues[p.Flow] = q
		f.order = append(f.order, p.Flow)
	}
	active := f.activeFlows()
	if q.Len() == 0 {
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
		out, _ := f.queues[victim].PopBack()
		f.addBits(victim, -out.Bits())
		f.Drops[victim]++
	}
	q.Push(p)
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
		p, ok := f.queues[flow].Pop()
		if !ok {
			continue
		}
		f.addBits(flow, -p.Bits())
		f.nextIdx = (idx + 1) % len(f.order)
		return p, true
	}
	return packet.Packet{}, false
}
