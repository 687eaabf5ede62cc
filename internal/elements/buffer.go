package elements

import (
	"modelcc/internal/packet"
	"modelcc/internal/sim"
	"modelcc/internal/units"
	"time"
)

// Buffer is the paper's BUFFER element: a tail-drop FIFO queue with a
// capacity in bits and an observable current fullness. It is drained by a
// Throughput element; construct the pair with NewBottleneck or wire a
// Buffer to a Throughput manually via AttachDrain.
type Buffer struct {
	capBits  int64
	usedBits int64
	q        packet.FIFO
	drain    *Throughput

	// Drops counts packets discarded because the queue was full,
	// broken down by flow. Experiments read it to verify the paper's
	// "never causes a buffer overflow" claim for α ≥ 1.
	Drops map[packet.FlowID]int
	// Enqueued counts accepted packets by flow.
	Enqueued map[packet.FlowID]int
	// OnDrop, if non-nil, observes each dropped packet.
	OnDrop func(packet.Packet)
}

// NewBuffer returns a tail-drop buffer with the given capacity in bits.
func NewBuffer(capBits int64) *Buffer {
	return &Buffer{
		capBits:  capBits,
		Drops:    make(map[packet.FlowID]int),
		Enqueued: make(map[packet.FlowID]int),
	}
}

// AttachDrain connects the Throughput element that serves this queue.
func (b *Buffer) AttachDrain(t *Throughput) {
	b.drain = t
	t.src = b
}

// CapacityBits reports the configured capacity.
func (b *Buffer) CapacityBits() int64 { return b.capBits }

// UsedBits reports the bits currently queued (excluding any packet that
// has already been handed to the drain for serialization).
func (b *Buffer) UsedBits() int64 { return b.usedBits }

// Len reports the number of queued packets.
func (b *Buffer) Len() int { return b.q.Len() }

// Prefill enqueues filler packets totalling at least fullBits, emulating
// the paper's "initial fullness" parameter. Filler packets belong to the
// given flow and are stamped with time zero. The final packet may push the
// fill slightly past fullBits but never past capacity.
func (b *Buffer) Prefill(fullBits int64, flow packet.FlowID) {
	seq := int64(0)
	for b.usedBits < fullBits {
		p := packet.New(flow, seq, 0)
		if b.usedBits+p.Bits() > b.capBits {
			return
		}
		b.q.Push(p)
		b.usedBits += p.Bits()
		b.Enqueued[flow]++
		seq++
	}
}

// Receive implements Node: tail-drop enqueue, then kick the drain.
func (b *Buffer) Receive(p packet.Packet) {
	if b.usedBits+p.Bits() > b.capBits {
		b.Drops[p.Flow]++
		if b.OnDrop != nil {
			b.OnDrop(p)
		}
		return
	}
	b.q.Push(p)
	b.usedBits += p.Bits()
	b.Enqueued[p.Flow]++
	if b.drain != nil {
		b.drain.Kick()
	}
}

// Dequeue implements Dequeuer for the drain.
func (b *Buffer) Dequeue() (packet.Packet, bool) {
	p, ok := b.q.Pop()
	if ok {
		b.usedBits -= p.Bits()
	}
	return p, ok
}

// Dequeuer is a queue a Throughput element can pull packets from. Buffer
// and FairQueue implement it.
type Dequeuer interface {
	Dequeue() (packet.Packet, bool)
}

// Throughput is the paper's THROUGHPUT element: a link that serializes
// packets at a fixed rate in bits per second. It pulls from an attached
// Dequeuer (the queue feeding it) and delivers each packet to its
// downstream Node after the packet's transmission time.
type Throughput struct {
	loop     *sim.Loop
	rate     units.BitRate
	src      Dequeuer
	next     Node
	busy     bool
	inflight packet.Packet
	done     *sim.Timer

	// Served counts packets fully serialized, by flow.
	Served map[packet.FlowID]int
	// ServedBits counts bits fully serialized.
	ServedBits int64
}

// NewThroughput returns a link of the given rate delivering to next.
func NewThroughput(loop *sim.Loop, rate units.BitRate, next Node) *Throughput {
	t := &Throughput{
		loop:   loop,
		rate:   rate,
		next:   next,
		Served: make(map[packet.FlowID]int),
	}
	t.done = sim.NewTimer(loop, t.finish)
	return t
}

// finish completes the in-service packet and pulls the next one. The
// in-service slot is cleared before delivery: delivering can reentrantly
// Kick this link (receiver ack -> sender -> enqueue), which loads the
// next packet into the slot.
func (t *Throughput) finish() {
	p := t.inflight
	t.inflight = packet.Packet{}
	t.busy = false
	t.deliver(p)
	t.Kick()
}

// SetNext implements Wirer.
func (t *Throughput) SetNext(n Node) { t.next = n }

// Rate reports the link speed.
func (t *Throughput) Rate() units.BitRate { return t.rate }

// InService reports the packet currently serializing and the virtual
// time its transmission completes; ok is false when the link is idle.
// Because every fleet packet has the same size, the in-service packet
// is the only one that can complete within one transmit time of now —
// the lookahead fact the windowed shard coordinator's ack peek builds
// on.
func (t *Throughput) InService() (p packet.Packet, doneAt time.Duration, ok bool) {
	if !t.busy {
		return packet.Packet{}, 0, false
	}
	at, armed := t.done.Deadline()
	if !armed {
		return packet.Packet{}, 0, false
	}
	return t.inflight, at, true
}

// Receive implements Node for direct use without an upstream Buffer: the
// packet is delivered after its serialization delay, with no queueing.
// Topologies that need queueing must put a Buffer in front.
func (t *Throughput) Receive(p packet.Packet) {
	t.loop.After(units.TransmitTime(p.Bits(), t.rate), func() {
		t.deliver(p)
	})
}

// Kick tells the link its source queue may have work; idempotent.
func (t *Throughput) Kick() {
	if t.busy || t.src == nil {
		return
	}
	p, ok := t.src.Dequeue()
	if !ok {
		return
	}
	t.busy = true
	t.inflight = p
	t.done.Arm(units.TransmitTime(p.Bits(), t.rate))
}

func (t *Throughput) deliver(p packet.Packet) {
	t.Served[p.Flow]++
	t.ServedBits += p.Bits()
	if t.next != nil {
		t.next.Receive(p)
	}
}

// NewBottleneck builds the paper's canonical queue-drained-by-link pair:
// a tail-drop Buffer of capBits whose drain is a Throughput of the given
// rate delivering to next. It returns both halves; enqueue into the
// Buffer.
func NewBottleneck(loop *sim.Loop, capBits int64, rate units.BitRate, next Node) (*Buffer, *Throughput) {
	b := NewBuffer(capBits)
	t := NewThroughput(loop, rate, next)
	b.AttachDrain(t)
	return b, t
}
