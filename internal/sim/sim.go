// Package sim is the discrete-event simulation kernel underlying every
// experiment in the repository.
//
// The paper's evaluation embeds the ISENDER "in an event-driven network
// simulation" (§4); this package is that simulator's core: a virtual
// clock, a priority queue of timestamped events with deterministic
// tie-breaking, cancellable timers, and a seeded random source so every
// run is reproducible.
//
// Virtual time is a time.Duration measured from the start of the run.
// Events scheduled for the same instant fire in scheduling order, which
// makes runs deterministic regardless of map iteration or goroutine
// scheduling — the kernel is strictly single-goroutine.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Event is a scheduled callback. It is returned by Schedule so callers can
// cancel it. The zero value is inert.
type Event struct {
	at     time.Duration
	seq    uint64
	do     func()
	index  int // position in the heap, -1 once fired or cancelled
	cancel bool
}

// Loop is a single-goroutine discrete-event loop. Create one with New.
type Loop struct {
	now     time.Duration
	nextSeq uint64
	pq      eventHeap
	rng     *rand.Rand
	fired   uint64
}

// New returns a Loop whose random source is seeded with seed. Two loops
// created with the same seed and fed the same schedule of events produce
// identical runs.
func New(seed int64) *Loop {
	return &Loop{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (l *Loop) Now() time.Duration { return l.now }

// Rand exposes the loop's deterministic random source. Elements that need
// randomness (LOSS, JITTER, INTERMITTENT, EITHER) draw from it so the whole
// run replays from the seed.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// Fired reports how many events have executed so far; useful for
// measuring simulation cost in benchmarks.
func (l *Loop) Fired() uint64 { return l.fired }

// Pending reports how many events are currently scheduled (including
// cancelled ones that have not yet been reaped).
func (l *Loop) Pending() int { return len(l.pq) }

// Schedule registers do to run at virtual time at. Scheduling in the past
// (before Now) panics: that is always a logic error in an element, and
// silently reordering time corrupts every downstream result.
func (l *Loop) Schedule(at time.Duration, do func()) *Event {
	if at < l.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, l.now))
	}
	if do == nil {
		panic("sim: nil event callback")
	}
	e := &Event{at: at, seq: l.nextSeq, do: do}
	l.nextSeq++
	heap.Push(&l.pq, e)
	return e
}

// After schedules do to run d from now. A non-positive d runs at the
// current instant (after already-queued events for this instant). A delay
// so large that now+d would overflow saturates to the maximum duration,
// i.e. "effectively never".
func (l *Loop) After(d time.Duration, do func()) *Event {
	if d < 0 {
		d = 0
	}
	at := l.now + d
	if at < l.now { // overflow
		at = time.Duration(math.MaxInt64)
	}
	return l.Schedule(at, do)
}

// Reschedule re-arms an event the caller owns exclusively: a fired or
// cancelled event is pushed back onto the queue, a still-pending one is
// moved to the new time. The event's callback is unchanged. This is the
// allocation-free path used by Timer and the delay-line elements — a
// caller that hands out *Event to third parties must not use it, because
// a stale handle would then refer to a live, reused event.
func (l *Loop) Reschedule(e *Event, at time.Duration) {
	if at < l.now {
		panic(fmt.Sprintf("sim: rescheduling into the past: at=%v now=%v", at, l.now))
	}
	if e.do == nil {
		panic("sim: rescheduling an event with no callback")
	}
	e.cancel = false
	e.at = at
	e.seq = l.nextSeq
	l.nextSeq++
	if e.index >= 0 {
		heap.Fix(&l.pq, e.index)
	} else {
		heap.Push(&l.pq, e)
	}
}

// Bind prepares an owned event for use with Reschedule without
// scheduling it. The returned event is inert until rescheduled.
func Bind(do func()) Event {
	if do == nil {
		panic("sim: nil event callback")
	}
	return Event{do: do, index: -1}
}

// Cancel prevents a scheduled event from firing. Cancelling a nil, fired,
// or already-cancelled event is a no-op, so callers can cancel
// unconditionally.
func (l *Loop) Cancel(e *Event) {
	if e == nil || e.cancel || e.index < 0 {
		if e != nil {
			e.cancel = true
		}
		return
	}
	e.cancel = true
	heap.Remove(&l.pq, e.index)
	e.index = -1
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when no events remain.
func (l *Loop) Step() bool {
	for len(l.pq) > 0 {
		e := heap.Pop(&l.pq).(*Event)
		e.index = -1
		if e.cancel {
			continue
		}
		l.now = e.at
		l.fired++
		e.do()
		return true
	}
	return false
}

// PeekTime reports the timestamp of the next live (non-cancelled)
// event without firing it; ok is false when none is scheduled. The
// windowed-horizon coordinator (internal/shard) uses it to skip empty
// conservative windows: when every shard's next event lies beyond the
// current horizon, the coordinator can open the window containing the
// earliest one instead of grinding through silent windows one by one.
// Cancelled events at the head are reaped as a side effect.
func (l *Loop) PeekTime() (at time.Duration, ok bool) {
	for len(l.pq) > 0 {
		next := l.pq[0]
		if next.cancel {
			heap.Pop(&l.pq)
			next.index = -1
			continue
		}
		return next.at, true
	}
	return 0, false
}

// Run fires events until the queue is empty or the next event lies
// strictly beyond until; it then advances the clock to until. It reports
// the number of events fired.
func (l *Loop) Run(until time.Duration) uint64 {
	start := l.fired
	for len(l.pq) > 0 {
		next := l.pq[0]
		if next.cancel {
			heap.Pop(&l.pq)
			next.index = -1
			continue
		}
		if next.at > until {
			break
		}
		l.Step()
	}
	if l.now < until {
		l.now = until
	}
	return l.fired - start
}

// RunAll fires every remaining event. It guards against runaway
// self-scheduling with a generous cap and panics if the cap is hit, which
// in practice only happens when an element re-arms itself unconditionally.
func (l *Loop) RunAll() uint64 {
	const cap = 1 << 32
	start := l.fired
	for l.Step() {
		if l.fired-start > cap {
			panic("sim: RunAll exceeded event cap; an element is self-scheduling forever")
		}
	}
	return l.fired - start
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
