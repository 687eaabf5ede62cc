package elements

import (
	"modelcc/internal/packet"
	"modelcc/internal/sim"
	"time"
)

// Receiver is the paper's RECEIVER element: it accumulates packets and
// notifies its owner of the received time and sequence number of each one
// (§3.4). Notification is a synchronous callback — the paper models the
// return path as lossless and instant; experiments.RunChaos perturbs it
// with ack loss, duplication and reordering.
type Receiver struct {
	loop *sim.Loop
	// OnAck is invoked for every received packet.
	OnAck func(packet.Ack)

	// Received counts packets by flow.
	Received map[packet.FlowID]int
	// ReceivedBits counts payload bits by flow.
	ReceivedBits map[packet.FlowID]int64
}

// NewReceiver returns a Receiver that invokes onAck for each arrival.
func NewReceiver(loop *sim.Loop, onAck func(packet.Ack)) *Receiver {
	return &Receiver{
		loop:         loop,
		OnAck:        onAck,
		Received:     make(map[packet.FlowID]int),
		ReceivedBits: make(map[packet.FlowID]int64),
	}
}

// Receive implements Node.
func (r *Receiver) Receive(p packet.Packet) {
	r.Received[p.Flow]++
	r.ReceivedBits[p.Flow] += p.Bits()
	if r.OnAck != nil {
		r.OnAck(packet.Ack{
			Flow:       p.Flow,
			Seq:        p.Seq,
			ReceivedAt: r.loop.Now(),
			SentAt:     p.SentAt,
		})
	}
}

// Arrival records one packet delivery for offline analysis.
type Arrival struct {
	Packet packet.Packet
	At     time.Duration
}

// Collector is a sink that records every arrival with its timestamp.
// Tests and experiment harnesses use it to reconstruct sequence-vs-time
// series.
type Collector struct {
	loop *sim.Loop
	// Arrivals in delivery order.
	Arrivals []Arrival
}

// NewCollector returns an empty Collector.
func NewCollector(loop *sim.Loop) *Collector {
	return &Collector{loop: loop}
}

// Receive implements Node.
func (c *Collector) Receive(p packet.Packet) {
	c.Arrivals = append(c.Arrivals, Arrival{Packet: p, At: c.loop.Now()})
}

// ByFlow returns the subset of arrivals belonging to flow, in order.
func (c *Collector) ByFlow(flow packet.FlowID) []Arrival {
	var out []Arrival
	for _, a := range c.Arrivals {
		if a.Packet.Flow == flow {
			out = append(out, a)
		}
	}
	return out
}

// Counter is a sink that counts arrivals by flow.
type Counter struct {
	// N counts packets by flow.
	N map[packet.FlowID]int
	// Bits counts payload bits by flow.
	Bits map[packet.FlowID]int64
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter {
	return &Counter{N: make(map[packet.FlowID]int), Bits: make(map[packet.FlowID]int64)}
}

// Receive implements Node.
func (c *Counter) Receive(p packet.Packet) {
	c.N[p.Flow]++
	c.Bits[p.Flow] += p.Bits()
}

// Tee duplicates every packet to each of its outputs, in order. It is
// instrumentation (e.g. counting packets mid-chain), not a paper element.
type Tee struct {
	outs []Node
}

// NewTee returns a Tee feeding each out.
func NewTee(outs ...Node) *Tee { return &Tee{outs: outs} }

// Receive implements Node.
func (t *Tee) Receive(p packet.Packet) {
	for _, n := range t.outs {
		if n != nil {
			n.Receive(p)
		}
	}
}
