package fleet

import (
	"cmp"
	"slices"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/elements"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/rollout"
	"modelcc/internal/sim"
	"modelcc/internal/utility"
)

// host is the member machinery a single-loop Fleet and a shard Partition
// share, embedded by both: the loop and rollout pool members run on, the
// prior and member configs resolved onto that pool, the building of a
// member wired into the shared cache or compiled table, and the batching
// scheduler that folds one instant's wakes into one drain. Its exported
// fields and methods are part of both embedders' surfaces. A host holds
// no membership: the Roster decides who is live and asks the flow's host
// to build each generation.
type host struct {
	// Cfg is the resolved configuration members are built from.
	Cfg Config
	// Loop is the discrete-event loop the hosted members run on.
	Loop *sim.Loop
	// Pool holds the arenas every hosted member plans and updates on.
	Pool *rollout.Pool

	// caches is the roster's policy cache (nil when disabled), and out
	// the node hosted members send into: the bottleneck ingress on the
	// single loop, the partition's Outbox under sharding.
	caches *planner.CacheStripes
	out    elements.Node

	// states/bcfg/pcfg are the resolved member-construction inputs.
	states []model.State
	bcfg   belief.Config
	pcfg   planner.Config

	dirty, spare []*Member
	drainArmed   bool
	// drainTimer is the one reusable event behind the per-instant
	// drain: arming it is allocation-free (sim.Loop.Reschedule), so
	// the batched-ack hot path never schedules a fresh closure.
	drainTimer *sim.Timer
}

// init builds the pool on loop and resolves the prior and the member
// configs onto them. cfg must already be resolved.
func (h *host) init(cfg Config, loop *sim.Loop, caches *planner.CacheStripes, out elements.Node) {
	h.Cfg = cfg
	h.Loop = loop
	h.Pool = rollout.New()
	h.caches, h.out = caches, out
	h.drainTimer = sim.NewTimer(h.Loop, h.drain)

	h.states, _ = cfg.ResolvedPrior().Enumerate()

	u := utility.Default()
	u.Alpha = cfg.Alpha
	h.bcfg = beliefDefaults(cfg.BeliefCfg, cfg.N)
	h.bcfg.Pool = h.Pool
	h.pcfg = planDefaults(cfg.PerSenderRate, u, cfg.N)
	h.pcfg.Pool = h.Pool
}

// build adapts s — a cold sender from the resolved prior and configs when
// nil — to the host's loop as flow's member, sending into out and waking
// through the batching scheduler. The sender's Guard is first wired to
// the shared serving machinery — the compiled table as rung 0 (none when
// Cfg.Table is nil) and the flow's policy cache stripe — and the fleet
// burst cap set. The Guard keeps its zero Budget, so every decision is
// synchronous and the loop deterministic. The member is not started.
func (h *host) build(flow packet.FlowID, s *core.Sender) *Member {
	if s == nil {
		s = core.NewSender(belief.NewExact(h.states, h.bcfg), h.pcfg)
	}
	s.Guard.Compiled = h.Cfg.Table
	if h.caches != nil {
		s.Guard.Cache = h.caches.For(uint32(flow))
	}
	// A solo sender's 32-packet burst cap is harmless; in a fleet a
	// sender whose posterior momentarily says "link free" would pour
	// 32 packets into the shared buffer before its next re-decision,
	// and N senders can do it at once. Tight bursts keep mistakes
	// packet-sized.
	s.MaxBurst = 4

	m := NewMember(h.Loop, s, flow, h.out)
	m.notify = h.enqueue
	m.lean = h.Cfg.LeanStats
	m.leanFrom = h.Cfg.LeanRateFrom
	m.canonical = h.Cfg.Canonical
	m.AdmittedAt = h.Loop.Now()
	return m
}

// enqueue marks a member dirty and arms one drain event at the current
// instant; all acknowledgments a member receives within the instant are
// then folded into a single belief update at drain time.
func (h *host) enqueue(m *Member) {
	if m.queued {
		return
	}
	m.queued = true
	h.dirty = append(h.dirty, m)
	if !h.drainArmed {
		h.drainArmed = true
		h.drainTimer.ArmAt(h.Loop.Now())
	}
}

// drain wakes the dirty members in arrival order, or — under
// Cfg.Canonical — in canonical flow order. Sorting makes the
// per-instant wake sequence a pure function of WHICH members woke,
// independent of the event interleaving that dirtied them; that is the
// property a sharded fleet relies on to reproduce the single-loop run
// bit for bit (cross-shard acks arrive through a merge whose arrival
// order differs, but the drained set is identical). The drain event
// always fires after every same-instant enqueue (it is armed by the
// instant's first enqueue, so its sequence number is larger than any
// event armed earlier), so the sort sees the full batch. A wake may
// dirty further members at the same instant; they are drained by a
// freshly armed event, still within the instant.
func (h *host) drain() {
	h.drainArmed = false
	batch := h.dirty
	h.dirty = h.spare[:0]
	if h.Cfg.Canonical {
		slices.SortFunc(batch, func(a, b *Member) int { return cmp.Compare(a.Flow, b.Flow) })
	}
	for _, m := range batch {
		m.queued = false
		m.wake()
	}
	h.spare = batch[:0]
}

// PriorStates returns the enumerated prior every member starts from.
// Callers must treat the slice and its states as read-only.
func (h *host) PriorStates() []model.State { return h.states }

// MemberBeliefConfig returns the resolved belief configuration members
// are built with (pool included), so a checkpoint restore reconstructs
// an identical belief.
func (h *host) MemberBeliefConfig() belief.Config { return h.bcfg }

// MemberPlanConfig returns the resolved planner configuration members
// are built with (pool included).
func (h *host) MemberPlanConfig() planner.Config { return h.pcfg }
