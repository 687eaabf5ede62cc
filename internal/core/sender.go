// Package core is the paper's primary contribution: the ISENDER, an
// endpoint that maintains a probability distribution over possible
// network configurations and, at every wakeup, takes whichever action —
// "send now" or "sleep until time t" — maximizes the expected value of
// an explicitly supplied utility function (§3.2–3.3).
//
// The Sender is a pure state machine driven by Wake calls: it owns no
// clock and no socket. The experiments drive it against a model.Truth
// (internal/experiments), one sender or a fleet of them. That separation
// is the paper's architecture made literal: the model and the utility
// function are first-class objects handed to the endpoint, and
// everything else is plumbing.
package core

import (
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
)

// Action is what a Sender decided to do at a wakeup.
type Action struct {
	// Sends are the packets to inject immediately, in order (the
	// planner may choose to send several back to back; each decision
	// saw the previous commitments). They live in the sender's one send
	// buffer and are valid until its next Wake: inject them, or copy
	// them to keep them.
	Sends []model.Send
	// WakeAt is the absolute time of the next self-scheduled wakeup.
	// An acknowledgment arriving earlier should wake the sender early —
	// the receiver "wakes up the sender for each packet" (§3.4).
	WakeAt time.Duration
}

// Sender is the ISENDER endpoint.
type Sender struct {
	// Belief is the sender's uncertainty about the network; supplied,
	// not owned, so callers choose its prior and configuration and may
	// wrap it.
	Belief belief.Belief
	// Plan configures the action search, including the utility function
	// being maximized.
	Plan planner.Config
	// Cache is not read: a sender plans through its Guard's Cache.
	//
	// Deprecated: set Guard.Cache instead.
	Cache *planner.PolicyCache
	// Guard is the sender's decision path, built by NewSender with no
	// deadline, no cache and no table: every decision is Guard.Decide,
	// which probes Guard.Compiled, plans (through Guard.Cache when set)
	// and remembers the last safe pacing interval a degraded decision
	// falls back to (see planner.Guard). A driver configures its fields
	// and never sets it to nil.
	Guard *planner.Guard
	// OnDecide, when non-nil, observes every decision: Wake calls it
	// right after each Guard.Decide, before RecordSend, with the wake the
	// decision planned on and the pending sends it saw. policy.Compile
	// records its table through it.
	OnDecide func(w *planner.Wake, pending []model.Send, d planner.Decision)
	// MaxBurst caps how many packets one wakeup may emit; the planner
	// naturally starts pacing after a few commitments, so the cap only
	// guards pathological configurations.
	MaxBurst int

	nextSeq int64
	// wake is the planner's view of the belief for the wake in hand.
	wake planner.Wake
	// sends is the buffer every Action.Sends is returned in.
	sends []model.Send

	// Sent counts packets emitted; Acked counts acknowledgments
	// consumed; Wakes counts wakeups.
	Sent  int64
	Acked int64
	Wakes int64
}

// NewSender returns an ISENDER over the given belief and plan, deciding
// through its own zero-budget Guard.
func NewSender(b belief.Belief, plan planner.Config) *Sender {
	return &Sender{Belief: b, Plan: plan, Guard: planner.NewGuard(0, nil), MaxBurst: 32}
}

// NextSeq reports the next unused sequence number.
func (s *Sender) NextSeq() int64 { return s.nextSeq }

// SetNextSeq reinstates a checkpointed sequence counter on a freshly
// built sender, so a warm-restored member continues the numbering its
// predecessor's acknowledgments refer to. Only lifecycle restore should
// call it; moving the counter backwards on a sender that has already
// sent would corrupt the belief's send history.
func (s *Sender) SetNextSeq(seq int64) { s.nextSeq = seq }

// Wake processes the acknowledgments received since the previous wakeup
// (possibly none, for timer wakeups), updates the belief, and decides
// what to do. Wake must be called with non-decreasing now.
//
// Its calls come in a fixed order that instrumentation decorating the
// Belief or the Guard's CompiledPolicy relies on: one Update, one Support
// (the planner.Wake every decision of this wake plans on), then per
// decision PendingSends immediately followed by Guard.Decide, OnDecide
// and, when it sends, RecordSend. The wake's support is valid until the
// belief's next Update or, for beliefs sharing a rollout.Pool, the next
// Support of another belief on it (belief.Belief.Support): no other
// belief's Support runs before Wake returns, and nothing of the wake's
// support outlives it but what the Guard clones.
func (s *Sender) Wake(now time.Duration, acks []packet.Ack) Action {
	s.Wakes++
	s.Acked += int64(len(acks))
	s.Belief.Update(now, acks)
	s.wake.Reset(s.Belief.Support(), now)

	s.sends = s.sends[:0]
	maxBurst := s.MaxBurst
	if maxBurst <= 0 {
		maxBurst = 32
	}
	for i := 0; i < maxBurst; i++ {
		pending := s.Belief.PendingSends()
		d := s.Guard.Decide(&s.wake, pending, s.nextSeq, s.Plan)
		if s.OnDecide != nil {
			s.OnDecide(&s.wake, pending, d)
		}
		if !d.SendNow {
			return Action{Sends: s.sends, WakeAt: d.WakeAt}
		}
		snd := model.Send{Seq: s.nextSeq, At: now}
		s.nextSeq++
		s.Sent++
		s.Belief.RecordSend(snd)
		s.sends = append(s.sends, snd)
	}
	// Burst cap reached while the planner still wanted to send;
	// re-decide shortly rather than spinning.
	grid := s.Plan.Grid
	if grid <= 0 {
		grid = planner.DefaultConfig().Grid
	}
	return Action{Sends: s.sends, WakeAt: now + grid}
}

// Estimates summarizes the sender's current posterior (for reporting).
func (s *Sender) Estimates() belief.Estimates {
	return belief.Summarize(s.Belief.Support())
}
