package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"modelcc/internal/units"
)

// QPkt is a packet descriptor inside the modeled BUFFER or in service at
// the THROUGHPUT link.
type QPkt struct {
	// Own marks the ISENDER's packets; filler and cross packets are not
	// Own.
	Own bool
	// Seq is the own-packet sequence number; -1 for cross/filler. It is
	// 32-bit so that it packs beside Own and an entry is 24 bytes, not
	// 32: every hypothesis stores and copies its queue, so the entry's
	// size is what the belief and the planner store and copy. Send,
	// Event and Ack keep int64; the send enqueue in advance (under Run
	// and RunAccum) is the one narrowing, and panics on a Send.Seq
	// outside int32's range. The hashes widen it with sign extension,
	// so they read the words an int64 gave.
	Seq int32
	// Bits is the packet size.
	Bits int64
	// EnqueuedAt is when the packet entered the buffer/link; delivery
	// events report At-EnqueuedAt as the packet's queueing delay, which
	// the latency-penalizing utility (§3.3) consumes. It is not part of
	// Key, so compaction (SameKey) ignores it: it cannot influence any
	// future observable.
	EnqueuedAt time.Duration
}

// EventKind classifies what happened to a packet during an advance.
type EventKind uint8

// Event kinds. Own* events concern the ISENDER's packets and drive the
// Bayesian update; Cross* events feed the utility function.
const (
	// OwnDelivered: an own packet finished the link and reached the
	// LOSS element; it arrives at the receiver with probability 1-p.
	OwnDelivered EventKind = iota
	// OwnBufferDrop: an own packet was tail-dropped at the BUFFER; it
	// can never be acknowledged.
	OwnBufferDrop
	// OwnLost: (Truth only) an own packet was dropped by the LOSS
	// element after the link.
	OwnLost
	// CrossDelivered: a cross packet finished the link (pre-LOSS).
	CrossDelivered
	// CrossBufferDrop: a cross packet was tail-dropped at the BUFFER.
	CrossBufferDrop
	// CrossLost: (Truth only) a cross packet was dropped by LOSS.
	CrossLost
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case OwnDelivered:
		return "own-delivered"
	case OwnBufferDrop:
		return "own-bufdrop"
	case OwnLost:
		return "own-lost"
	case CrossDelivered:
		return "cross-delivered"
	case CrossBufferDrop:
		return "cross-bufdrop"
	case CrossLost:
		return "cross-lost"
	default:
		return "event(?)"
	}
}

// Event is one packet outcome produced by advancing a State.
type Event struct {
	Kind EventKind
	// Seq is the own-packet sequence number, -1 for cross events.
	Seq int64
	// At is the event time: for deliveries the instant the link
	// completes the packet (clocks are synchronized, so that is also
	// when the receiver sees it), for drops the drop instant.
	At time.Duration
	// Bits is the packet size, used by the utility accounting.
	Bits int64
	// Delay is the packet's in-network sojourn (delivery time minus
	// enqueue time, sender clock) for delivery events; zero for drops.
	Delay time.Duration
}

// Send is a scheduled injection of one own packet into the network.
type Send struct {
	// Seq is the packet's sequence number.
	Seq int64
	// At is the injection time; must be >= the state's current time
	// when passed to an advance.
	At time.Duration
	// Bits is the packet size; 0 means the hypothesis's uniform size.
	Bits int64
}

// State is one hypothesis about the network: its static parameters, by
// pointer, plus the dynamic state of the Figure 2 composition. The
// parameter record is immutable and shared — by every gate-start variant
// of a prior grid point and by every clone and fork of them — so a State
// is a value type in everything but P: Clone yields a copy whose dynamic
// state and queue are its own and whose record is the same one. Nothing
// writes through P; SetParams gives a state a record of its own.
type State struct {
	// P are the hypothesis's static parameters and the constants derived
	// from them (see record). A zero State has none: Initial,
	// Prior.Enumerate and SetParams build them.
	P *record
	// ParamsID identifies the prior grid point that produced P; it takes
	// part in the compaction key so hypotheses with different parameters
	// never merge. Assign it when building the prior.
	ParamsID int32
	// PingerOn is the INTERMITTENT gate state (true = connected).
	PingerOn bool
	// Serving reports whether a packet occupies the link.
	Serving bool

	// Now is the hypothesis's current time.
	Now time.Duration
	// NextCross is the absolute time of the PINGER's next emission. The
	// pinger runs on an absolute grid regardless of the gate, exactly
	// like the PINGER -> INTERMITTENT composition in the simulator.
	NextCross time.Duration
	// NextToggle is the next switch *opportunity* (inference discretizes
	// the memoryless gate to a grid of opportunities; see AdvanceEnum).
	NextToggle time.Duration
	// SwitchTick is the spacing of toggle opportunities.
	SwitchTick time.Duration

	// InService is the packet on the link while Serving.
	InService QPkt
	// ServiceDone is the absolute time the in-service packet departs
	// the link.
	ServiceDone time.Duration
	// Queue holds the waiting packets; the in-service packet is not in
	// Queue, matching elements.Buffer. The live window is
	// Queue[QHead:] (use Queued to read it): departures advance QHead
	// instead of shifting the slice, and the advance loop moves the
	// window back to the front whenever the dead prefix is at least as
	// long as it (packet.FIFO's rule). A departure is O(1) amortized and
	// leaves QHead ≤ QLen(), so the array holds at most twice the
	// backlog however often the hypothesis forks. Clones normalize QHead
	// back to 0.
	Queue []QPkt
	// QHead indexes the first waiting packet in Queue.
	QHead int
	// QueueBits caches the occupancy of the live window.
	QueueBits int64
}

// SetParams gives s a fresh parameter record built from p. The record s
// had may be shared with other hypotheses, so it is never written: this
// is how a hypothesis's parameters change.
func (s *State) SetParams(p Params) { s.P = newRecord(p) }

// Queued returns the waiting packets, head first. The slice aliases the
// state; treat it as read-only.
func (s *State) Queued() []QPkt { return s.Queue[s.QHead:] }

// QLen reports the number of waiting packets.
func (s *State) QLen() int { return len(s.Queue) - s.QHead }

// DefaultSwitchTick is the default spacing of discretized pinger switch
// opportunities used by inference. With the paper's 100 s mean switch
// time, a 1 s grid gives a ~1% toggle probability per opportunity.
const DefaultSwitchTick = time.Second

// Initial returns the hypothesis's state at time zero: the buffer holds
// InitFullBits of filler (quantized to whole packets), the link starts
// serving the head filler packet if any, and the pinger's first emission
// is one interval away.
func Initial(p Params, pingerOn bool) State { return initial(newRecord(p), pingerOn) }

// initial is Initial over a record the caller may share.
func initial(r *record, pingerOn bool) State {
	s := State{
		P:          r,
		PingerOn:   pingerOn,
		NextCross:  r.crossIvl,
		NextToggle: DefaultSwitchTick,
		SwitchTick: DefaultSwitchTick,
	}
	pkt := r.pktBits
	for filled := int64(0); filled+pkt <= r.InitFullBits; filled += pkt {
		s.enqueue(QPkt{Own: false, Seq: -1, Bits: pkt}, nil, nil)
	}
	return s
}

// Clone returns a copy of the state with a queue of its own (QHead
// normalized to zero) and the same parameter record.
func (s *State) Clone() State {
	c := *s
	c.Queue = append([]QPkt(nil), s.Queue[s.QHead:]...)
	c.QHead = 0
	return c
}

// CloneInto copies s into dst, reusing dst's Queue capacity (QHead
// normalized to zero). It is the allocation-free Clone used by the
// rollout engine's scratch states; dst must not alias s.
func (s *State) CloneInto(dst *State) {
	q := dst.Queue[:0]
	*dst = *s
	dst.Queue = append(q, s.Queue[s.QHead:]...)
	dst.QHead = 0
}

// Rebase shifts every absolute time in the state by `by`. Belief
// collapse recovery (belief.Config.Recover) uses it to restart
// pristine prior states at the collapse instant: the re-seeded
// hypothesis behaves exactly as a fresh Initial state would if the run
// had begun at Now+by. "Never" deadlines (units.Forever, e.g. NextCross
// with no cross traffic) saturate instead of overflowing into the past.
func (s *State) Rebase(by time.Duration) {
	s.Now += by
	s.NextCross = saturatingShift(s.NextCross, by)
	s.NextToggle = saturatingShift(s.NextToggle, by)
	if s.Serving {
		s.ServiceDone += by
		s.InService.EnqueuedAt += by
	}
	for i := range s.Queue {
		s.Queue[i].EnqueuedAt += by
	}
}

// saturatingShift adds by to t, clamping at units.Forever on overflow so
// sentinel "never" deadlines stay in the future.
func saturatingShift(t, by time.Duration) time.Duration {
	if by > 0 && t > units.Forever-by {
		return units.Forever
	}
	return t + by
}

// EqualDynamic reports whether two states at the same instant have
// identical dynamic network state — same service occupancy and identical
// queues, including enqueue stamps (which feed delay-sensitive
// utilities). Two equal states under identical future inputs produce
// identical futures, which is what lets planner rollouts stop early once
// a candidate reconverges with its baseline.
func (s *State) EqualDynamic(o *State) bool {
	if s.Serving != o.Serving || s.QueueBits != o.QueueBits || s.QLen() != o.QLen() {
		return false
	}
	if s.Serving && (s.InService != o.InService || s.ServiceDone != o.ServiceDone) {
		return false
	}
	sq, oq := s.Queued(), o.Queued()
	for i := range sq {
		if sq[i] != oq[i] {
			return false
		}
	}
	return true
}

// InFlightOwn reports how many own packets currently occupy the buffer or
// the link.
func (s *State) InFlightOwn() int {
	n := 0
	if s.Serving && s.InService.Own {
		n++
	}
	for _, q := range s.Queued() {
		if q.Own {
			n++
		}
	}
	return n
}

// SystemBits reports the total bits in the buffer plus in service: the
// quantity whose drain time bounds "how long consequences linger".
func (s *State) SystemBits() int64 {
	b := s.QueueBits
	if s.Serving {
		b += s.InService.Bits
	}
	return b
}

// enqueue admits a packet to the buffer/link, appending any resulting
// event to out (which may be nil when the caller doesn't care, e.g.
// during Initial prefill), and reports whether the packet joined the
// queue behind a busy link (false: it went straight into service, or was
// dropped). Tail-drop semantics match elements.Buffer: the in-service
// packet does not count against capacity.
// An arrival that finds the link idle ends a gap, which acc (may be nil)
// logs when its watch is armed.
func (s *State) enqueue(q QPkt, out *[]Event, acc *Accum) (queued bool) {
	q.EnqueuedAt = s.Now
	if !s.Serving {
		if acc != nil && acc.twinBits > 0 {
			acc.refill(s.Now, q.Bits, s.P.BufferCapBits)
		}
		s.startService(q)
		return false
	}
	if s.QueueBits+q.Bits > s.P.BufferCapBits {
		if out != nil {
			kind := CrossBufferDrop
			if q.Own {
				kind = OwnBufferDrop
			}
			*out = append(*out, Event{Kind: kind, Seq: int64(q.Seq), At: s.Now, Bits: q.Bits})
		}
		return false
	}
	s.Queue = append(s.Queue, q)
	s.QueueBits += q.Bits
	return true
}

func (s *State) startService(q QPkt) {
	s.Serving = true
	s.InService = q
	s.ServiceDone = s.Now + s.P.serviceTime(q.Bits)
}

// Run advances the state to `until`, processing link completions, pinger
// emissions, and the scheduled sends, WITHOUT any gate toggles — the
// caller controls toggle points (AdvanceEnum forks at them; Truth samples
// them; planner rollouts freeze them). Sends must be sorted by At and lie
// in (s.Now-ε, until]; a send in the past panics. Events are appended to
// out. Events at one instant are ordered: link completion, then pinger
// emission, then send.
func (s *State) Run(until time.Duration, sends []Send, out *[]Event) {
	s.advance(until, sends, out, nil)
}

// RunAccum is Run with the deliveries folded straight into acc instead of
// recorded: the same loop, the same instants, each delivery handed to
// acc.Deliver where Run would have appended its event (drops, which are
// worth nothing, leave no trace). acc.Take after it is what
// utility.Meter.Add over Run's events would have returned, bit for bit —
// the planner's sweep, which reads nothing else of a segment, advances
// this way and never materializes an event. Stopping at an instant on the
// way and calling again moves nothing: the state after an advance is a
// function of the events due by until, so the sweep may pause its
// baseline to read acc.Pending without touching the segment partition.
func (s *State) RunAccum(until time.Duration, sends []Send, acc *Accum) {
	s.advance(until, sends, nil, acc)
}

// Arrival kinds of the advance loop.
const (
	arrNone = iota
	arrCross
	arrSend
)

// advance is the one advance loop under Run and RunAccum, built around
// arrivals: find the next arrival due by until (a pinger tick wins a tie
// with a send), let the link complete every packet due by that instant —
// a backlogged FIFO between arrivals is a Lindley recursion, each
// departure starting the next service, so the stretch drains in one inner
// loop with nothing else to consult — then admit the arrival. A delivery
// goes to out, to acc, or to both; either may be nil. An acc whose watch
// is armed (Accum.Watch) also learns where the link ran dry and what
// refilled it (a gap) and how deep a lagged twin each queued arrival left
// room for: a store or two per gap, a few branches per queued arrival,
// nothing on the delivery path.
func (s *State) advance(until time.Duration, sends []Send, out *[]Event, acc *Accum) {
	p := s.P
	for {
		at, arrival := until, arrNone
		if s.NextCross <= until {
			at, arrival = s.NextCross, arrCross
		}
		if len(sends) > 0 && sends[0].At <= until && (arrival == arrNone || sends[0].At < at) {
			at, arrival = sends[0].At, arrSend
		}

		// Departures due by then: the in-service packet leaves the link
		// and passes (conceptually) into the LOSS element, the next
		// queued packet starts serializing, and so on down the backlog.
		if s.Serving && s.ServiceDone <= at {
			q, done := s.InService, s.ServiceDone
			for {
				s.Now = done
				if out != nil {
					kind := CrossDelivered
					if q.Own {
						kind = OwnDelivered
					}
					*out = append(*out, Event{Kind: kind, Seq: int64(q.Seq), At: done, Bits: q.Bits, Delay: done - q.EnqueuedAt})
				}
				if acc != nil {
					acc.Deliver(q.Own, q.Bits, done, done-q.EnqueuedAt)
				}
				if s.QHead == len(s.Queue) {
					s.Serving = false
					if acc != nil && acc.twinBits > 0 {
						acc.dry(done)
					}
					break
				}
				q = s.Queue[s.QHead]
				s.QHead++
				s.QueueBits -= q.Bits
				// Compact whenever the dead prefix is at least as long as
				// the live window: a compaction copies no more packets
				// than departed since the last one, and the array never
				// holds more than twice the backlog.
				if 2*s.QHead >= len(s.Queue) {
					n := copy(s.Queue, s.Queue[s.QHead:])
					s.Queue = s.Queue[:n]
					s.QHead = 0
				}
				done += p.serviceTime(q.Bits)
				if done > at {
					s.InService, s.ServiceDone = q, done
					break
				}
			}
		}

		switch arrival {
		case arrNone:
			if s.Now < until {
				s.Now = until
			}
			return
		case arrCross:
			s.Now = at
			s.NextCross += p.crossIvl
			if s.PingerOn && s.enqueue(QPkt{Own: false, Seq: -1, Bits: p.crossBits}, out, acc) && acc != nil && acc.twinBits > 0 {
				s.watchQueued(acc)
			}
		case arrSend:
			snd := sends[0]
			sends = sends[1:]
			if at < s.Now {
				// Invariant: sends are stamped by the sender's own
				// monotone clock, so a past send is a driver bug the
				// run must surface, not tolerate.
				panic("model: send scheduled in the hypothesis's past")
			}
			s.Now = at
			if int64(int32(snd.Seq)) != snd.Seq {
				// Invariant: a queue entry holds a 32-bit sequence
				// number (QPkt.Seq). A wider one would wrap onto
				// another packet's, so it is refused, not truncated.
				panic(fmt.Sprintf("model: send sequence number %d does not fit in int32", snd.Seq))
			}
			bits := snd.Bits
			if bits <= 0 {
				bits = p.pktBits
			}
			if s.enqueue(QPkt{Own: true, Seq: int32(snd.Seq), Bits: bits}, out, acc) && acc != nil && acc.twinBits > 0 {
				s.watchQueued(acc)
			}
		}
	}
}

// watchQueued is the armed watch's one check per arrival the baseline has
// just queued (the packet at its queue's tail): how many packets behind
// could a twin be and have had room for it too? It lowers acc's level to
// the deepest one whose charge (twinCharge) still fits, and books the
// arrival's service time, which is how far BacklogDone has just moved.
func (s *State) watchQueued(acc *Accum) {
	acc.queued += s.P.serviceTime(s.Queue[len(s.Queue)-1].Bits)
	room := s.P.BufferCapBits - s.QueueBits
	in := s.InService.Bits
	age := s.Now - (s.ServiceDone - s.P.serviceTime(in))
	for acc.level > 0 && twinCharge(int(acc.level), acc.twinBits, acc.twinLag, in, age) > room {
		acc.level--
	}
}

// twinCharge is the level rule of the theorem at BacklogDone: the most a
// twin j packets of x bits (service time lag each) behind can hold in its
// queue beyond the baseline's, whose packet in service has in bits and
// began age ago. A twin one packet behind holds the extra packet itself
// while it waits or, once it is through, the packet in service for the
// first lag of that service — never both, so the larger is charged
// (exact, and so which single twins survive a stretch is settled by
// nothing looser). Deeper twins are charged the sum: j·x is the most the
// link begins and finishes inside a window of j·lag, and the packet in
// service comes on top while its service is younger than the window.
func twinCharge(j int, x int64, lag time.Duration, in int64, age time.Duration) int64 {
	if j == 1 {
		if in > x && age < lag {
			return in
		}
		return x
	}
	c := int64(j) * x
	if age < time.Duration(j)*lag {
		c += in
	}
	return c
}

// BacklogDone reports u, the instant a busy link finishes everything now
// in the system: ServiceDone plus the service times of the queue. While
// the link stays busy a departure does not move it and a queued arrival
// adds its own service time, which is what lets an armed watch carry it
// forward (Accum.TakeQueued) instead of summing the queue again.
//
// It anchors the lagged-twin theorem. Fork a twin from this state (the
// baseline, at time t; u = t on an idle link) by admitting m more packets
// of x bits and service time ℓ at the queue tail, and let no packet that
// arrives after t be smaller than x.
// If from t to some H (i) the link never idles and (ii) every arrival the
// baseline queues leaves room for the twin's surplus — the charge of
// level m: m·x plus the bits in service when that service began less than
// m·ℓ before, or for m = 1 the larger of x and those bits — then the
// twin's BacklogDone is the baseline's plus m·ℓ; it delivers the m packets
// at u+ℓ … u+m·ℓ and everything the baseline delivers after u exactly m·ℓ
// later (past H falling out); its drops are the baseline's; and it is
// never EqualDynamic to the baseline. Its queue holds more than the
// baseline's by m·x before u and afterwards by what the baseline began
// serving in the last m·ℓ (Lag.Surplus): FIFO and work conservation start
// the extra packets at u, u+ℓ, … and everything behind them m·ℓ late, and
// a link serving nothing smaller than x finishes at most m·x bits in m·ℓ.
// A packet X admitted behind that twin at t' ≥ t makes it the twin m+1
// behind: X leaves at BacklogDone(t') + (m+1)·ℓ, and is certainly dropped
// when the surplus's lower bound leaves no room, certainly admitted when
// its upper bound does, and not known from the baseline in between. An
// Accum armed with Watch(x, ℓ, levels, log) logs (i) and reports the
// deepest level of (ii) per stretch; FuzzLaggedTwin and FuzzTwinStack
// hold all this to Run's event lists.
//
// Without (i) the twin carries extra work E, m·ℓ from u on, that stays
// put while the link is busy and shrinks one for one while it idles (Lag):
// until it is gone each busy stretch's deliveries leave that stretch's E
// late and the drops are the baseline's, if (ii) holds at level ⌈E/ℓ⌉ and
// each arrival ending a gap fits beside what the twin still queues — under
// E of work in packets of x bits or more, so nothing while E ≤ ℓ and at
// most ⌈E/ℓ⌉·x bits beyond (Lag.Holds). A gap lasting E absorbs it and
// the twin is EqualDynamic to the baseline from then on. A packet X
// admitted behind such a twin at t', E(t') still owed, is queued on an
// idle baseline when Holds(E) + x fits and on a busy one as Lag.Surplus
// says; it leaves at BacklogDone(t') (t' when idle) + E(t') + ℓ, and the
// side carries E(t')+ℓ from there on. FuzzAbsorbedTwin holds this to Run's
// event lists. When nothing arrives after t, every stretch is empty and
// X's value is the whole gain (FuzzDrained).
func (s *State) BacklogDone() time.Duration {
	u := s.ServiceDone
	for _, q := range s.Queued() {
		u += s.P.serviceTime(q.Bits)
	}
	return u
}

// Lag closes a lagged twin's gain by the corollary at BacklogDone, from
// A(t), the baseline's value delivered by t: E is its extra work, From
// when the stretch E is carried through began (u, then each gap's end),
// A = A(From), and Gain, X's value at u+ℓ less what each stretch cost.
type Lag struct {
	E, From time.Duration
	A, Gain float64
}

// Cut is the instant of the stretch (From, end] after which the
// baseline's deliveries, E late on the twin, leave after horizon.
func (l *Lag) Cut(end, horizon time.Duration) time.Duration {
	return min(max(horizon-l.E, l.From), end)
}

// Slip is 1−e^(−E/κ), what a delivery loses by leaving E later.
func (l *Lag) Slip(kappa float64) float64 { return -math.Expm1(-float64(l.E) / kappa) }

// Stretch books the busy stretch (From, end]: deliveries up to Cut lose
// slip of their value, those after it all of it; aCut, aEnd are A there.
func (l *Lag) Stretch(aCut, aEnd, slip float64) {
	l.Gain = l.Gain - slip*(aCut-l.A) - (aEnd - aCut)
}

// Idle carries the lag across a gap from dry, where A was a, to end (the
// arrival ending it, or an instant it lasts to), and reports whether it
// absorbed E — Gain is then final; else the next stretch starts at end.
func (l *Lag) Idle(dry, end time.Duration, a float64) (absorbed bool) {
	idle := end - max(dry, l.From)
	if l.E <= idle {
		l.E = 0
		return true
	}
	l.E -= idle
	l.From, l.A = end, a
	return false
}

// ServiceBegan is when the packet in service began its service.
func (s *State) ServiceBegan() time.Duration {
	return s.ServiceDone - s.P.serviceTime(s.InService.Bits)
}

// Holds bounds what a twin carrying the lag queues while its baseline
// idles, for packets of x bits and service time lag (BacklogDone): under E
// of work in packets of x bits or more — nothing while E ≤ lag.
func (l *Lag) Holds(x int64, lag time.Duration) int64 {
	if l.E <= lag {
		return 0
	}
	return int64((l.E+lag-1)/lag) * x
}

// Surplus bounds, at instant at, how many more bits than its baseline's
// the queue of a twin carrying the lag holds under the premises at
// BacklogDone, the baseline serving in bits for served (in = 0: idle):
// its E/lag extra packets before From (= u, no gap yet); nothing once E is
// gone or the packet in service has served for E; else that packet, which
// the twin has not begun, and at most Holds more.
func (l *Lag) Surplus(at, served time.Duration, in, x int64, lag time.Duration) (lo, hi int64) {
	switch {
	case at < l.From:
		n := int64(l.E/lag) * x
		return n, n
	case l.E == 0 || in > 0 && served >= l.E:
		return 0, 0
	}
	return in, in + l.Holds(x, lag)
}

// Toggle flips the INTERMITTENT gate.
func (s *State) Toggle() { s.PingerOn = !s.PingerOn }

// Key returns a canonical encoding of the hypothesis for compaction: two
// states with equal keys are behaviorally identical forever and may be
// merged, summing their weights (§3.2 "compacted back into one state").
func (s *State) Key() string {
	buf := make([]byte, 0, 64+12*s.QLen())
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	put(uint64(s.ParamsID))
	put(uint64(s.Now))
	if s.PingerOn {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	put(uint64(s.NextCross))
	put(uint64(s.NextToggle))
	if s.Serving {
		buf = append(buf, 1)
		put(uint64(s.ServiceDone))
		put(uint64(s.InService.Seq))
		put(uint64(s.InService.Bits))
		if s.InService.Own {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	} else {
		buf = append(buf, 0)
	}
	for _, q := range s.Queued() {
		put(uint64(q.Seq))
		put(uint64(q.Bits))
		if q.Own {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return string(buf)
}

// Seeds of the two hash streams Mix advances: the primary stream starts
// at the FNV-64 offset basis and the verify stream at that basis pushed
// off by the golden-ratio constant, so the pair decorrelates from the
// first word.
const (
	HashSeed   uint64 = 14695981039346656037
	VerifySeed uint64 = HashSeed ^ 0x9E3779B97F4A7C15
)

// Mix folds one word into a primary and a verify hash stream: the one
// word-at-a-time mixer under KeyHead, planner.Fingerprint and the
// planner's rollout memo. Each step is a bijection of the word (xor or
// add, odd multiply, xorshift), so inputs that differ in one word never
// share a primary; the streams differ in seed, combiner and multiplier,
// so they fail independently — what lets a verify mismatch expose a
// primary collision. A caller that keeps one stream pays for one: the
// other is dead code once Mix is inlined.
func Mix(primary, verify, v uint64) (uint64, uint64) {
	primary = (primary ^ v) * 0x9E3779B97F4A7C15
	primary ^= primary >> 32
	verify = (bits.RotateLeft64(verify, 27) + v) * 0xBF58476D1CE4E5B9
	verify ^= verify >> 29
	return primary, verify
}

// ShapeWord packs the queue length and the serving and gate flags: the
// word that makes a hash or key encoding self-delimiting, since it says
// how many packet words follow and whether the in-service group does.
func (s *State) ShapeWord() uint64 {
	w := uint64(s.QLen()) << 2
	if s.Serving {
		w |= 2
	}
	if s.PingerOn {
		w |= 1
	}
	return w
}

// SizeWord packs what the hashes read of a packet besides its sequence
// number: its size and whose it is.
func (q QPkt) SizeWord() uint64 {
	w := uint64(q.Bits) << 1
	if q.Own {
		w |= 1
	}
	return w
}

// SameKey reports whether s and o have equal Keys, without building
// either: the compaction identity, read field by field. It reads
// exactly what Key encodes — never enqueue stamps, the dead queue
// prefix, the toggle grid or the cached occupancy.
func (s *State) SameKey(o *State) bool { return s.SameKeyAs(s.ParamsID, o, o.ParamsID) }

// SameKeyAs is SameKey with s read under the grid point id and o under
// oid in place of their own ParamsIDs: the compaction identity of a
// belief that keeps each hypothesis's grid point beside the state of its
// class (SameClass), which the class's members share.
func (s *State) SameKeyAs(id int32, o *State, oid int32) bool {
	if id != oid || s.Now != o.Now || s.PingerOn != o.PingerOn ||
		s.NextCross != o.NextCross || s.NextToggle != o.NextToggle ||
		s.Serving != o.Serving || s.QLen() != o.QLen() {
		return false
	}
	if s.Serving && (s.ServiceDone != o.ServiceDone || !s.InService.sameKey(o.InService)) {
		return false
	}
	sq, oq := s.Queued(), o.Queued()
	for i := range sq {
		if !sq[i].sameKey(oq[i]) {
			return false
		}
	}
	return true
}

// sameKey compares what Key encodes of a packet: all but its enqueue
// stamp.
func (q QPkt) sameKey(o QPkt) bool { return q.Seq == o.Seq && q.Bits == o.Bits && q.Own == o.Own }

// KeyHead hashes, in constant time, fixed-size fields Key encodes —
// the header, the in-service packet's sequence number and the last
// queued packet — so states with equal Keys always share it. It is
// compaction's bucket, not an identity: SameKey decides.
func (s *State) KeyHead() uint64 { return s.KeyHeadAs(s.ParamsID) }

// KeyHeadAs is KeyHead with the grid point id in place of s.ParamsID, so
// that SameKeyAs(id, o, oid) implies KeyHeadAs(id) == o.KeyHeadAs(oid).
func (s *State) KeyHeadAs(id int32) uint64 {
	h := HashSeed
	mix := func(v uint64) { h, _ = Mix(h, 0, v) }
	mix(uint64(id))
	mix(uint64(s.Now))
	mix(s.ShapeWord())
	mix(uint64(s.NextCross))
	mix(uint64(s.NextToggle))
	if s.Serving {
		mix(uint64(s.ServiceDone))
		mix(uint64(s.InService.Seq))
	}
	if q := s.Queued(); len(q) > 0 {
		mix(uint64(q[len(q)-1].Seq))
		mix(q[len(q)-1].SizeWord())
	}
	return h
}

// SameClass reports whether s and o advance alike: equal in everything
// Run and Enumerate read — the dynamics constants of their parameter
// records, compared by value, and every dynamic field, enqueue stamps,
// the stale in-service packet and the toggle grid included. What it
// leaves out is what the advance never reads: LossProb (last-mile loss
// only weighs observations), InitFullBits (read once, by Initial),
// ParamsID, and the dead queue prefix. States in one class advanced by
// the same sends reach states in one class with the same events, so a
// belief advances a class once for all its members.
func (s *State) SameClass(o *State) bool {
	return s.Now == o.Now && s.PingerOn == o.PingerOn && s.NextCross == o.NextCross &&
		s.NextToggle == o.NextToggle && s.SwitchTick == o.SwitchTick &&
		s.InService == o.InService && s.ServiceDone == o.ServiceDone &&
		s.EqualDynamic(o) && s.P.sameDynamics(o.P)
}

// ClassHead hashes, in constant time, fields SameClass compares — the
// link's constants, the header, the packet in service and the last
// queued packet — so states in one class always share it: the class
// index's bucket, not an identity.
func (s *State) ClassHead() uint64 {
	h := HashSeed
	mix := func(v uint64) { h, _ = Mix(h, 0, v) }
	mix(math.Float64bits(float64(s.P.LinkRate)))
	mix(uint64(s.P.crossIvl))
	mix(uint64(s.P.BufferCapBits))
	mix(uint64(s.Now))
	mix(s.ShapeWord())
	mix(uint64(s.NextCross))
	mix(uint64(s.NextToggle))
	mix(uint64(s.ServiceDone))
	mix(uint64(s.InService.Seq))
	if q := s.Queued(); len(q) > 0 {
		mix(uint64(q[len(q)-1].Seq))
		mix(uint64(q[len(q)-1].EnqueuedAt))
	}
	return h
}

// AppendRolloutKey appends to dst exactly what a gate-frozen rollout
// from decision instant now reads of the hypothesis: Run fed sends
// stamped relative to now, its deliveries consumed as (kind, bits,
// At − now) and, under a penalty, Delay and 1−p. Two states with equal
// keys (under the same penalty) produce identical such streams from
// identical relative sends, at any two instants — the identity a planner
// needs to roll a recurring hypothesis once. Every time is rebased to now;
// the walk is knowledge of what Run reads, which is why it lives beside
// SameKey and EqualDynamic, and it reads far less than they do:
//
//   - ParamsID, MeanSwitch, InitFullBits, NextToggle and SwitchTick
//     never reach Run (the caller owns toggles);
//   - with the gate off the pinger only ticks a clock nothing reads, so
//     the cross chunk, its interval (all CrossRate decides) and
//     NextCross count only when PingerOn;
//   - sequence numbers label events and never steer them;
//   - enqueue stamps surface only as a delivery's Delay, and LossProb only
//     as its value's factor 1−p, which a caller weighs in afterwards unless
//     a latency penalty makes gains nonlinear in it: both count only then;
//   - absolute time never matters: clocks are synchronized, so the key
//     is purely relative and now itself is not in it.
//
// The encoding is self-delimiting (the flags word carries the queue
// length and which optional groups follow), so callers may append more
// words after it.
func (s *State) AppendRolloutKey(dst []uint64, now time.Duration, penalty bool) []uint64 {
	p := s.P
	dst = append(dst, s.ShapeWord(), math.Float64bits(float64(p.LinkRate)),
		uint64(p.BufferCapBits), uint64(p.pktBits), uint64(s.Now-now))
	if penalty {
		dst = append(dst, math.Float64bits(p.LossProb))
	}
	if s.PingerOn {
		dst = append(dst, uint64(p.crossBits), uint64(p.crossIvl), uint64(s.NextCross-now))
	}
	if s.Serving {
		dst = s.InService.appendRolloutKey(dst, now, penalty)
		dst = append(dst, uint64(s.ServiceDone-now))
	}
	for _, q := range s.Queued() {
		dst = q.appendRolloutKey(dst, now, penalty)
	}
	return dst
}

func (q QPkt) appendRolloutKey(dst []uint64, now time.Duration, penalty bool) []uint64 {
	dst = append(dst, q.SizeWord())
	if penalty {
		dst = append(dst, uint64(q.EnqueuedAt-now))
	}
	return dst
}

// Branch is one weighted outcome of advancing a hypothesis with
// enumeration of gate toggles.
type Branch struct {
	// S is the post-advance state.
	S State
	// W is the branch's probability given the pre-advance state
	// (product of toggle/stay probabilities along the branch).
	W float64
	// Events are the packet outcomes along the branch, in time order.
	Events []Event
}

// AdvanceEnum advances a hypothesis to `until`, forking at every
// discretized switch opportunity: at each grid point the gate toggles
// with probability q = 1-exp(-tick/mean) and stays with 1-q. The
// returned branches' weights sum to 1 (up to float rounding). Sends must
// be sorted by At.
//
// This is the paper's "nondeterministic element may fork the model into
// two possibilities" (§3.2) applied to INTERMITTENT. LOSS deliberately
// does not fork here: it is last-mile, so it cannot affect any future
// observable timing — the belief applies its probability directly to
// observation likelihoods instead (§3.2's remark that last-mile loss
// "does not linger"). Nothing here reads LossProb at all, so states
// equal but for it (SameClass) yield the same branches and events: the
// belief advances such loss siblings once and weighs the shared events
// with each sibling's p.
//
// It is Enumerate over freshly allocated branches; the belief runs the
// same walk over the storage its hypotheses already live in.
func AdvanceEnum(s State, until time.Duration, sends []Send) []Branch {
	q := ToggleProb(s.SwitchTick, s.P.MeanSwitch)
	done := make([]Branch, s.Leaves(until, q))
	last := len(done) - 1
	done[last].S = s.Clone()
	var evs []Event
	done[last].S.Enumerate(until, sends, &evs, last, 1, q,
		func(j int) *State { return &done[j].S },
		func(j int, w float64) {
			done[j].W = w
			if j < last {
				done[j].Events = append([]Event(nil), evs...)
			} else if len(evs) > 0 {
				done[j].Events = evs // the last branch keeps the buffer
			}
		})
	return done
}

// Leaves reports how many branches Enumerate yields when s advances to
// until with toggle probability q: two per switch opportunity at or
// before until, one for a gate that cannot toggle.
func (s *State) Leaves(until time.Duration, q float64) int {
	n := s.opportunities(until)
	if n == 0 || q <= 0 {
		return 1
	}
	return 1 << uint(n)
}

// opportunities counts the gate's switch opportunities at or before until.
func (s *State) opportunities(until time.Duration) int {
	if s.SwitchTick <= 0 || s.NextToggle > until {
		return 0
	}
	return int((until-s.NextToggle)/s.SwitchTick + 1)
}

// Enumerate is the one advance-with-forks walk: it runs s to until where
// s lives, and at every switch opportunity clones a flipped twin into
// caller storage and finishes the twin's subtree before carrying on
// with s. The gate toggles with probability q per opportunity, which is
// ToggleProb(s.SwitchTick, s.P.MeanSwitch): every branch of one walk
// shares tick and mean switch time, so a caller advancing many states
// takes it once for all that share them. Branch j of the Leaves(until, q)
// outcomes — flipped before stay at every fork, depth first — ends in
// slot(j); s itself is the last, so the caller passes j = its first slot
// + Leaves(until, q) − 1 and the branch probability w = 1. leaf(j, w) is
// called once per branch, in slot order, when slot j holds the branch's
// final state and *evs the packet outcomes along it (a prefix shared
// with the branches still to come, so leaf must consume them before it
// returns). slot(j) may return recycled storage: the twin is written
// with CloneInto.
func (s *State) Enumerate(until time.Duration, sends []Send, evs *[]Event, j int, w, q float64,
	slot func(j int) *State, leaf func(j int, w float64)) {
	for s.P.MeanSwitch > 0 && s.opportunities(until) > 0 {
		// Run to the next opportunity, then fork.
		hi := 0
		for hi < len(sends) && sends[hi].At <= s.NextToggle {
			hi++
		}
		s.Run(s.NextToggle, sends[:hi], evs)
		sends = sends[hi:]
		s.NextToggle += s.SwitchTick
		if q <= 0 {
			continue
		}
		// The stay subtree keeps the Leaves(until, q) slots ending at j (q > 0:
		// two to the power of the opportunities left); the flipped one ends
		// just before them.
		tj := j - 1<<uint(s.opportunities(until))
		twin := slot(tj)
		s.CloneInto(twin)
		twin.Toggle()
		n := len(*evs)
		twin.Enumerate(until, sends, evs, tj, w*q, q, slot, leaf)
		*evs = (*evs)[:n]
		w *= 1 - q
	}
	s.Run(until, sends, evs)
	leaf(j, w)
}

// ToggleProb is the probability that a memoryless gate with the given
// mean switching time toggles within one tick. It is the single source
// of truth for the inference discretization: AdvanceEnum and Enumerate
// fork with it.
func ToggleProb(tick, mean time.Duration) float64 {
	if mean <= 0 || tick <= 0 {
		return 0
	}
	return 1 - math.Exp(-tick.Seconds()/mean.Seconds())
}
