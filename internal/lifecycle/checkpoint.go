// Package lifecycle is the fleet's member lifecycle and crash-recovery
// policy: in-memory checkpoints of a member's full decision state, and
// one Controller that watches member health, restarts failures through a
// hot/warm/cold ladder with capped backoff, and draws deterministic churn
// schedules from seeded chaos streams. Two clocks drive it: the
// Supervisor at exact instants on the single loop, and shard.Fleet at
// coupling-window barriers.
//
// A checkpoint captures everything a member needs to resume making the
// same decisions an uninterrupted member would: the belief posterior,
// pending sends, the soft-matching ack memory, the sender's
// sequence/throughput counters, and the last safe pacing action of the
// sender's own planner Guard, which RestoreSender puts back on the new
// sender's Guard, so a restored member degrades as the original would.
// A checkpoint carries no model identity of its own: restoring it over a
// different prior is refused by belief.Restore, which requires every
// hypothesis to name a grid point of the host's prior with that point's
// parameters, so a mismatch is a detected error, never a silently wrong
// belief.
//
// The restart ladder, fastest first:
//
//	hot  — the fleet serves a compiled policy.Table: a fresh member
//	       answers rung-0 probes from the table immediately, before its
//	       belief has learned anything;
//	warm — the member's last checkpoint restores the belief it had
//	       already converged to;
//	cold — the prior alone, re-learning from scratch.
//
// Warm restores compose with the table (the restored member keeps the
// table as Guard rung 0), and every member, restarted or not, degrades
// through planner.Guard's in-decision ladder (table → live → last safe
// → sleep); this package's ladder chooses where a member
// *starts*, the Guard's chooses how each *decision* is served.
package lifecycle

import (
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/planner"
)

// Checkpoint is one member's full decision state at an instant
// (Belief.Now).
type Checkpoint struct {
	// NextSeq, Sent, Acked, Wakes are the sender's counters.
	NextSeq, Sent, Acked, Wakes int64
	// LastSafeDelta is the sender's Guard's remembered safe pacing
	// interval (rung 2 of the degradation ladder), zero when it has none;
	// RestoreSender reinstates it on the restored sender's Guard.
	LastSafeDelta time.Duration
	// Belief is the belief snapshot (posterior, pending sends, ack
	// memory, counters).
	Belief belief.Snapshot
}

// Capture snapshots a live member. It does not mutate the member.
// Acknowledgments delivered in the current instant but not yet folded
// into the belief are not captured; the belief's soft matching absorbs
// the at-most-one-instant gap on restore.
func Capture(m *fleet.Member) *Checkpoint {
	return &Checkpoint{
		NextSeq:       m.Sender.NextSeq(),
		Sent:          m.Sender.Sent,
		Acked:         m.Sender.Acked,
		Wakes:         m.Sender.Wakes,
		LastSafeDelta: m.Sender.Guard.LastSafe(),
		Belief:        m.Sender.Belief.Snapshot(),
	}
}

// MemberHost is the restore surface a checkpointed sender is rebuilt
// against: the prior and the resolved member configs of the loop the
// runtime's roster will build the restored member on (a host holds no
// membership itself). Both the single-loop *fleet.Fleet and the sharded
// *fleet.Partition implement it, so one restore path serves warm
// restarts and failovers on either runtime. A checkpoint taken under one
// host restores bit-identically under any other with the same prior — a
// checkpoint carries no topology.
type MemberHost interface {
	PriorStates() []model.State
	MemberBeliefConfig() belief.Config
	MemberPlanConfig() planner.Config
}

// RestoreSender rebuilds a sender from the checkpoint against a host's
// resolved prior and configs. A checkpoint captured over a different
// prior is a detected error (belief.Restore's grid check). The sender's
// Guard holds the checkpoint's safe pacing interval; the sender is not
// yet wired into the host: attach it with the runtime's Attach
// (fleet.Roster.Attach on either runtime).
func RestoreSender(host MemberHost, c *Checkpoint) (*core.Sender, error) {
	b, err := belief.Restore(host.PriorStates(), host.MemberBeliefConfig(), c.Belief)
	if err != nil {
		return nil, err
	}
	s := core.NewSender(b, host.MemberPlanConfig())
	s.SetNextSeq(c.NextSeq)
	s.Sent = c.Sent
	s.Acked = c.Acked
	s.Wakes = c.Wakes
	s.Guard.RestoreLastSafe(c.LastSafeDelta)
	return s, nil
}
