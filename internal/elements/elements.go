// Package elements implements the paper's network-element language (§3.1):
// idealized versions of the data structures and phenomena that occur in
// real networks, composable into arbitrary topologies.
//
//	BUFFER       tail-drop queue (capacity, fullness)        -> Buffer
//	THROUGHPUT   rate-limited link                           -> Throughput
//	DELAY        fixed delay                                 -> Delay
//	LOSS         i.i.d. stochastic loss                      -> Loss
//	JITTER       probabilistic extra delay                   -> Jitter
//	PINGER       isochronous cross-traffic source            -> Pinger
//	INTERMITTENT memoryless connect/disconnect gate          -> Intermittent
//	SQUAREWAVE   deterministic periodic gate                 -> SquareWave
//	SERIES       chain of elements                           -> Series
//	DIVERTER     route one flow one way, the rest another    -> Diverter
//	EITHER       send to one of two elements, switching      -> Either
//	RECEIVER     packet sink that emits acknowledgments      -> Receiver
//
// Beyond the paper's list, the package provides a §3.5 future-work
// element, a deficit round-robin fair-queue scheduler, plus test
// instrumentation (Collector, Counter, Tee).
//
// Elements are glued together in a push style: each element implements
// Node and forwards packets to its downstream Node. All timing runs on a
// shared sim.Loop, so whole topologies are deterministic given the loop's
// seed.
package elements

import "modelcc/internal/packet"

// Node is anything a packet can be delivered to. All elements implement
// Node; sinks such as Receiver and Collector terminate chains.
type Node interface {
	// Receive accepts a packet at the current virtual time.
	Receive(p packet.Packet)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(packet.Packet)

// Receive implements Node.
func (f NodeFunc) Receive(p packet.Packet) { f(p) }

// Discard is a Node that drops everything delivered to it.
var Discard Node = NodeFunc(func(packet.Packet) {})

// Series wires a chain of elements so that each one's output feeds the
// next, returning the head. The last element of the chain must already be
// wired (or be a sink); Series only exists to make topology construction
// read like the paper's SERIES combinator.
//
// Because this package glues elements by construction-time "next"
// pointers, Series is implemented over the Wirer interface.
type Wirer interface {
	Node
	// SetNext points the element's output at n.
	SetNext(n Node)
}

// Chain wires elems[i] -> elems[i+1] -> ... -> tail and returns the head
// of the chain. With no elems it returns tail.
func Chain(tail Node, elems ...Wirer) Node {
	next := tail
	for i := len(elems) - 1; i >= 0; i-- {
		elems[i].SetNext(next)
		next = elems[i]
	}
	return next
}
