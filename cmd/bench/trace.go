package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
)

// The traced run times the program from outside: core.Sender.Belief is
// an interface field and planner.CompiledPolicy an interface, so the
// benchmark wraps both per sender; Guard.RecordLatency times every
// decision. Nothing under internal/ knows it is being watched.
//
// A sender's Wake is a fixed sequence — one Belief.Update, then for
// each decision Support, PendingSends, Guard.Decide (which may probe
// the compiled table) — so the wake span opens at the Update's start
// and closes with its last decision, and each decision's start is the
// instant PendingSends returned.

// spanKind names a span; its String is the name written to the file.
type spanKind uint8

const (
	spanWake spanKind = iota
	spanUpdate
	spanDecide
	spanProbe
)

func (k spanKind) String() string {
	return [...]string{"core.wake", "belief.update", "planner.decide", "policy.probe"}[k]
}

// span is one timed interval; times are nanoseconds since the recorder
// set's epoch and parent indexes the same recorder's spans (−1: none).
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// recorder collects one sender's spans and counters. Each sender has
// its own, so two shards recording at once share nothing.
type recorder struct {
	flow  uint32
	epoch time.Time
	spans []span
	wake  int32 // index of the open wake span

	updates           int64
	updateNS          int64
	updateLat         []int64
	branches, kept    int64
	relaxed, reseeded int64
	probes, probeHits int64
	probeNS           int64
	probeLat          []int64
	decideStarts      []int64
	// delayUpdate and delayProb are busy-waits selftest injects.
	delayUpdate, delayProb time.Duration
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// reset forgets everything recorded so far (the warm-up) but keeps the
// buffers.
func (r *recorder) reset() {
	*r = recorder{
		flow: r.flow, epoch: r.epoch, wake: -1,
		delayUpdate: r.delayUpdate, delayProb: r.delayProb,
		spans: r.spans[:0], updateLat: r.updateLat[:0],
		probeLat: r.probeLat[:0], decideStarts: r.decideStarts[:0],
	}
}

// spin busy-waits for d: the calibrated delay selftest injects to prove
// that a slower layer shows where the tables say it should.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// tracedBelief decorates a sender's belief.
type tracedBelief struct {
	belief.Belief
	rec *recorder
}

func (t *tracedBelief) Update(now time.Duration, acks []packet.Ack) belief.UpdateStats {
	r := t.rec
	t0 := time.Now()
	if r.delayUpdate > 0 {
		spin(r.delayUpdate)
	}
	st := t.Belief.Update(now, acks)
	t1 := time.Now()
	s, e := r.since(t0), r.since(t1)
	r.wake = int32(len(r.spans))
	r.spans = append(r.spans,
		span{kind: spanWake, parent: -1, start: s, end: e},
		span{kind: spanUpdate, parent: r.wake, start: s, end: e})
	r.updates++
	r.updateNS += e - s
	r.updateLat = append(r.updateLat, e-s)
	r.branches += int64(st.Branches)
	r.kept += int64(st.N)
	r.relaxed += int64(st.Relaxed)
	r.reseeded += int64(st.Reseeded)
	return st
}

func (t *tracedBelief) PendingSends() []model.Send {
	p := t.Belief.PendingSends()
	t.rec.decideStarts = append(t.rec.decideStarts, t.rec.since(time.Now()))
	return p
}

// tracedPolicy decorates the compiled table a sender's Guard probes.
type tracedPolicy struct {
	planner.CompiledPolicy
	rec *recorder
}

func (t *tracedPolicy) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (planner.Decision, bool) {
	r := t.rec
	t0 := time.Now()
	if r.delayProb > 0 {
		spin(r.delayProb)
	}
	d, ok := t.CompiledPolicy.Probe(sup, pending, now)
	t1 := time.Now()
	s, e := r.since(t0), r.since(t1)
	r.spans = append(r.spans, span{kind: spanProbe, parent: r.wake, start: s, end: e})
	r.probes++
	if ok {
		r.probeHits++
	}
	r.probeNS += e - s
	r.probeLat = append(r.probeLat, e-s)
	return d, ok
}

// instrument gives the sender the Guard every timed decision is read
// from and, when rec is non-nil, the tracing decorators. A sender
// planning through a bare cache gains planner.NewGuard(0, cache), which
// decides identically (fleet.Member.SetDegraded documents the
// equivalence), so instrumenting never changes a run.
func instrument(s *core.Sender, rec *recorder) {
	if s.Guard == nil {
		s.Guard = planner.NewGuard(0, s.Cache)
		s.Cache = nil
	}
	s.Guard.RecordLatency = true
	if rec == nil {
		return
	}
	s.Belief = &tracedBelief{Belief: s.Belief, rec: rec}
	if s.Guard.Compiled != nil {
		s.Guard.Compiled = &tracedPolicy{CompiledPolicy: s.Guard.Compiled, rec: rec}
	}
}

// closeSpans turns the decision start stamps and the Guard's latencies
// into decide spans and stretches each wake span over its decisions.
// Both lists hold one entry per Guard.Decide call since the last reset.
func (r *recorder) closeSpans(latencies []int64) {
	n := len(r.decideStarts)
	if len(latencies) < n {
		n = len(latencies)
	}
	lat := latencies[len(latencies)-n:]
	wakes := make([]int32, 0, r.updates)
	for i, s := range r.spans {
		if s.kind == spanWake {
			wakes = append(wakes, int32(i))
		}
	}
	w := 0
	for i := 0; i < n; i++ {
		start := r.decideStarts[i]
		for w+1 < len(wakes) && r.spans[wakes[w+1]].start <= start {
			w++
		}
		end := start + lat[i]
		parent := int32(-1)
		if len(wakes) > 0 && r.spans[wakes[w]].start <= start {
			parent = wakes[w]
			if end > r.spans[parent].end {
				r.spans[parent].end = end
			}
		}
		r.spans = append(r.spans, span{kind: spanDecide, parent: parent, start: start, end: end})
	}
}

// writeSpans writes every recorder's spans as JSON lines
// {id, name, start, end, parent, flow}: start and end are nanoseconds
// since the recorder's window opened, id is "recorder:index" and parent
// the id of the enclosing wake span, or null.
func writeSpans(path string, recs []*recorder) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	for k, r := range recs {
		for i, s := range r.spans {
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf(`"%d:%d"`, k, s.parent)
			}
			fmt.Fprintf(w, `{"id":"%d:%d","name":%q,"start":%d,"end":%d,"parent":%s,"flow":%d}`+"\n",
				k, i, s.kind.String(), s.start, s.end, parent, r.flow)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
