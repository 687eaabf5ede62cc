package policy

import (
	"sync/atomic"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/planner"
)

// Server is the serving side of a compiled table: it implements
// planner.CompiledPolicy and planner.WakePolicy, answering Guard rung-0
// probes from the table (zero allocation on the lookup itself). The
// wake-keyed ProbeWake is the serving path: a Guard hands it its
// planner.Wake, which prints the support once for all of a wake's
// decisions. Probe prints the bare support on every call.
//
// One Server may be shared by every sender in a process (the fleet
// hands the same Server to all members): the table is immutable and the
// counters are atomic.
type Server struct {
	t *Table

	probes, hits, misses atomic.Int64
}

// The Guard takes the wake-keyed path only through this interface; a
// Server that stopped implementing it would still serve, on every
// decision's own support print.
var _ planner.WakePolicy = (*Server)(nil)

// MissLog is not read: a Server records nothing.
//
// Deprecated: pass nil to NewServer.
type MissLog struct{}

// NewServer serves decisions from t. The second argument is ignored.
func NewServer(t *Table, _ *MissLog) *Server {
	return &Server{t: t}
}

// Stats reports probes, table hits, and misses since construction.
func (s *Server) Stats() (probes, hits, misses int64) {
	return s.probes.Load(), s.hits.Load(), s.misses.Load()
}

// ProbeWake implements planner.WakePolicy: it fingerprints the wake's
// belief under the table's recorded quanta and serves the compiled action
// rebased to the wake's instant. A fingerprint whose verification hash
// mismatches is a detected collision and reported as a miss.
func (s *Server) ProbeWake(w *planner.Wake, pending []model.Send) (planner.Decision, bool) {
	fp, ver := w.Fingerprint(pending, s.t.h.TimeQuantum, s.t.h.WeightQuantum)
	return s.lookup(fp, ver, w.Now(), w.View().Len())
}

// Probe implements planner.CompiledPolicy: ProbeWake on a bare support.
func (s *Server) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (planner.Decision, bool) {
	fp, ver := planner.Fingerprint(sup, pending, now, s.t.h.TimeQuantum, s.t.h.WeightQuantum)
	return s.lookup(fp, ver, now, len(sup))
}

// lookup serves the record under (fp, ver) for a belief of support
// hypotheses at now, counting the probe.
func (s *Server) lookup(fp, ver uint64, now time.Duration, support int) (planner.Decision, bool) {
	s.probes.Add(1)
	r, ok := s.t.Lookup(fp, ver)
	if !ok {
		s.misses.Add(1)
		return planner.Decision{}, false
	}
	s.hits.Add(1)
	return r.Decision(now, support), true
}
