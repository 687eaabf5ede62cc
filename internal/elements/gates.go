package elements

import (
	"math"
	"modelcc/internal/packet"
	"modelcc/internal/sim"
	"modelcc/internal/units"
	"time"
)

// Intermittent is the paper's INTERMITTENT element: it connects its input
// to its output only intermittently, switching between connected and
// disconnected according to a memoryless process with the given
// mean-time-to-switch. While disconnected, packets are discarded.
type Intermittent struct {
	loop      *sim.Loop
	mean      time.Duration
	connected bool
	next      Node

	// Gated counts packets discarded while disconnected.
	Gated int
}

// NewIntermittent returns an Intermittent gate starting in the connected
// state, switching with exponential interarrivals of the given mean.
func NewIntermittent(loop *sim.Loop, meanTimeToSwitch time.Duration, next Node) *Intermittent {
	e := &Intermittent{loop: loop, mean: meanTimeToSwitch, connected: true, next: next}
	e.armSwitch()
	return e
}

// SetNext implements Wirer.
func (e *Intermittent) SetNext(n Node) { e.next = n }

func (e *Intermittent) armSwitch() {
	if e.mean <= 0 {
		return // never switches
	}
	// Exponential holding time with the configured mean.
	u := e.loop.Rand().Float64()
	hold := units.SecondsToDuration(-math.Log(1-u) * e.mean.Seconds())
	e.loop.After(hold, func() {
		e.connected = !e.connected
		e.armSwitch()
	})
}

// Receive implements Node.
func (e *Intermittent) Receive(p packet.Packet) {
	if !e.connected {
		e.Gated++
		return
	}
	if e.next != nil {
		e.next.Receive(p)
	}
}

// SquareWave is the paper's SQUAREWAVE element: it alternates between
// connected and disconnected deterministically with a fixed half-period.
// The Figure 3 experiment uses a SquareWave with a 100-second half-period
// as the ground truth while the ISENDER *believes* the gate is an
// Intermittent — exactly the model-mismatch the paper tests.
type SquareWave struct {
	loop      *sim.Loop
	half      time.Duration
	connected bool
	next      Node

	// Gated counts packets discarded while disconnected.
	Gated int
}

// NewSquareWave returns a gate starting connected that toggles every
// halfPeriod.
func NewSquareWave(loop *sim.Loop, halfPeriod time.Duration, next Node) *SquareWave {
	e := &SquareWave{loop: loop, half: halfPeriod, connected: true, next: next}
	e.armToggle()
	return e
}

// SetNext implements Wirer.
func (e *SquareWave) SetNext(n Node) { e.next = n }

func (e *SquareWave) armToggle() {
	if e.half <= 0 {
		return
	}
	e.loop.After(e.half, func() {
		e.connected = !e.connected
		e.armToggle()
	})
}

// Receive implements Node.
func (e *SquareWave) Receive(p packet.Packet) {
	if !e.connected {
		e.Gated++
		return
	}
	if e.next != nil {
		e.next.Receive(p)
	}
}

// Diverter is the paper's DIVERTER element: packets from one source flow
// are routed to one element, and all other traffic to a different element.
type Diverter struct {
	match   packet.FlowID
	matched Node
	rest    Node
}

// NewDiverter routes packets of flow match to matched and everything else
// to rest.
func NewDiverter(match packet.FlowID, matched, rest Node) *Diverter {
	return &Diverter{match: match, matched: matched, rest: rest}
}

// Receive implements Node.
func (e *Diverter) Receive(p packet.Packet) {
	if p.Flow == e.match {
		if e.matched != nil {
			e.matched.Receive(p)
		}
		return
	}
	if e.rest != nil {
		e.rest.Receive(p)
	}
}

// Either is the paper's EITHER element: traffic goes either to element A
// or to element B, switching between them with a memoryless process of
// the given mean-time-to-switch.
type Either struct {
	loop *sim.Loop
	mean time.Duration
	useA bool
	a, b Node
}

// NewEither returns an Either starting on a, switching with the given
// mean.
func NewEither(loop *sim.Loop, meanTimeToSwitch time.Duration, a, b Node) *Either {
	e := &Either{loop: loop, mean: meanTimeToSwitch, useA: true, a: a, b: b}
	e.armSwitch()
	return e
}

func (e *Either) armSwitch() {
	if e.mean <= 0 {
		return
	}
	u := e.loop.Rand().Float64()
	hold := units.SecondsToDuration(-math.Log(1-u) * e.mean.Seconds())
	e.loop.After(hold, func() {
		e.useA = !e.useA
		e.armSwitch()
	})
}

// Receive implements Node.
func (e *Either) Receive(p packet.Packet) {
	n := e.b
	if e.useA {
		n = e.a
	}
	if n != nil {
		n.Receive(p)
	}
}
