package elements

import (
	"testing"
	"time"

	"modelcc/internal/packet"
	"modelcc/internal/sim"
)

func TestFairQueueIsolatesFlows(t *testing.T) {
	loop := sim.New(1)
	col := NewCollector(loop)
	fq := NewFairQueue(8 * pktBits)
	th := NewThroughput(loop, linkRate, col)
	fq.AttachDrain(th)

	// A flooding flow and a polite flow arrive together; round-robin
	// service must interleave them even though the flooder enqueued
	// first.
	for i := int64(0); i < 20; i++ {
		send(fq, packet.FlowSelf, i, 0)
	}
	for i := int64(0); i < 3; i++ {
		send(fq, packet.FlowCross, i, 0)
	}
	loop.RunAll()

	cross := col.ByFlow(packet.FlowCross)
	if len(cross) != 3 {
		t.Fatalf("polite flow delivered %d/3 packets", len(cross))
	}
	// The polite flow's packets must not all be serviced last: its first
	// delivery should land within the first few services.
	first := cross[0].At
	if first > 4*time.Second {
		t.Errorf("polite flow first service at %v; starved by flooder", first)
	}
	// The flooder must have lost packets to its fair-share cap.
	if fq.Drops[packet.FlowSelf] == 0 {
		t.Error("flooding flow never dropped despite fair-share cap")
	}
}

func TestFairQueueSingleFlowFIFO(t *testing.T) {
	loop := sim.New(1)
	col := NewCollector(loop)
	fq := NewFairQueue(8 * pktBits)
	th := NewThroughput(loop, linkRate, col)
	fq.AttachDrain(th)
	for i := int64(0); i < 4; i++ {
		send(fq, packet.FlowSelf, i, 0)
	}
	loop.RunAll()
	for i, a := range col.Arrivals {
		if a.Packet.Seq != int64(i) {
			t.Fatalf("single-flow fair queue reordered: %v", col.Arrivals)
		}
	}
}

func TestFairQueueEmptyDequeue(t *testing.T) {
	fq := NewFairQueue(8 * pktBits)
	if _, ok := fq.Dequeue(); ok {
		t.Error("empty fair queue dequeued something")
	}
	// Exercise the exhausted-order path: enqueue then drain fully.
	fq.Receive(packet.New(packet.FlowSelf, 0, 0))
	if _, ok := fq.Dequeue(); !ok {
		t.Error("fair queue lost its only packet")
	}
	if _, ok := fq.Dequeue(); ok {
		t.Error("fair queue invented a packet")
	}
	if fq.UsedBits() != 0 {
		t.Errorf("UsedBits = %d after drain", fq.UsedBits())
	}
}
