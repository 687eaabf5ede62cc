// Package emu provides trace-driven link emulation: a simulator element
// (TraceLink) that releases one queued packet per delivery opportunity
// of a trace.Trace — the standard technique for reproducing cellular
// link behaviour without the cellular network.
package emu

import (
	"fmt"

	"modelcc/internal/elements"
	"modelcc/internal/packet"
	"modelcc/internal/sim"
	"modelcc/internal/trace"
)

// TraceLink is a DES element: a tail-drop queue drained by the delivery
// opportunities of a trace. Cellular "bufferbloat" is a TraceLink with a
// multi-megabyte queue.
type TraceLink struct {
	loop    *sim.Loop
	tr      trace.Trace
	capBits int64
	next    elements.Node

	q        packet.FIFO
	usedBits int64
	deliverT *sim.Timer

	// Delivered and Drops count packets by flow.
	Delivered map[packet.FlowID]int
	Drops     map[packet.FlowID]int
	// QueueDepth samples the queue (bits) at each arrival, for
	// inspecting bufferbloat directly.
	MaxQueueBits int64
}

// NewTraceLink returns a trace-driven link with the given queue capacity
// delivering to next. Traces come from files and flags — external input,
// not programmer invariants — so an invalid one is an error, not a
// panic.
func NewTraceLink(loop *sim.Loop, tr trace.Trace, capBits int64, next elements.Node) (*TraceLink, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	l := &TraceLink{
		loop:      loop,
		tr:        tr,
		capBits:   capBits,
		next:      next,
		Delivered: make(map[packet.FlowID]int),
		Drops:     make(map[packet.FlowID]int),
	}
	l.deliverT = sim.NewTimer(loop, l.fire)
	return l, nil
}

// SetNext implements elements.Wirer.
func (l *TraceLink) SetNext(n elements.Node) { l.next = n }

// UsedBits reports the current queue occupancy.
func (l *TraceLink) UsedBits() int64 { return l.usedBits }

// Receive implements elements.Node.
func (l *TraceLink) Receive(p packet.Packet) {
	if l.usedBits+p.Bits() > l.capBits {
		l.Drops[p.Flow]++
		return
	}
	l.q.Push(p)
	l.usedBits += p.Bits()
	if l.usedBits > l.MaxQueueBits {
		l.MaxQueueBits = l.usedBits
	}
	l.arm()
}

// arm schedules delivery at the next opportunity if not already armed.
func (l *TraceLink) arm() {
	if l.deliverT.Armed() {
		return
	}
	if l.q.Len() == 0 {
		return
	}
	at, ok := l.tr.Next(l.loop.Now())
	if !ok {
		return // finite trace exhausted: the link is dead
	}
	l.deliverT.ArmAt(at)
}

func (l *TraceLink) fire() {
	p, ok := l.q.Pop()
	if !ok {
		return
	}
	l.usedBits -= p.Bits()
	l.Delivered[p.Flow]++
	if l.next != nil {
		l.next.Receive(p)
	}
	l.arm()
}
