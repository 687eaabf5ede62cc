package policy

import (
	"sync/atomic"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/planner"
)

// Server is the serving side of a compiled table: it implements
// planner.CompiledPolicy, answering Guard rung-0 probes from the table
// (zero allocation on the lookup itself) and appending unserved
// fingerprints — with the live decision that covered for them — to an
// optional sidecar miss log that seeds the next compile.
//
// One Server may be shared by every sender in a process (the fleet
// hands the same Server to all members): the table is immutable, the
// counters are atomic, and the miss log locks internally.
type Server struct {
	t    *Table
	miss *MissLog

	probes, hits, misses atomic.Int64
}

// NewServer serves decisions from t, logging misses to missLog when
// non-nil.
func NewServer(t *Table, missLog *MissLog) *Server {
	return &Server{t: t, miss: missLog}
}

// Table returns the table being served.
func (s *Server) Table() *Table { return s.t }

// Stats reports probes, table hits, and misses since construction.
func (s *Server) Stats() (probes, hits, misses int64) {
	return s.probes.Load(), s.hits.Load(), s.misses.Load()
}

// Probe implements planner.CompiledPolicy: it fingerprints the belief
// under the table's recorded quanta and serves the compiled action
// rebased to now. A fingerprint whose verification hash mismatches is
// a detected collision and reported as a miss.
func (s *Server) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (planner.Decision, bool) {
	fp, ver := planner.Fingerprint(sup, pending, now, s.t.h.TimeQuantum, s.t.h.WeightQuantum)
	s.probes.Add(1)
	r, ok := s.t.Lookup(fp, ver)
	if !ok {
		s.misses.Add(1)
		return planner.Decision{}, false
	}
	s.hits.Add(1)
	return r.Decision(now, len(sup)), true
}

// RecordMiss implements planner.CompiledPolicy: the live decision that
// covered a table miss is appended to the sidecar (once per distinct
// fingerprint) so the next compile serves it from the table.
func (s *Server) RecordMiss(sup []belief.Hypothesis, pending []model.Send, now time.Duration, d planner.Decision) {
	if s.miss == nil {
		return
	}
	fp, ver := planner.Fingerprint(sup, pending, now, s.t.h.TimeQuantum, s.t.h.WeightQuantum)
	// Append errors are deliberately swallowed: the sidecar is an
	// optimization for the next compile, and a full disk must not take
	// down the serving path.
	_ = s.miss.Append(Record{FP: fp, Verify: ver, SendNow: d.SendNow, Delta: d.WakeAt - now, Gain: d.Gain})
}
