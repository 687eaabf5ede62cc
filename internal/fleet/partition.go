package fleet

import (
	"time"

	"modelcc/internal/core"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/sim"
)

// Partition is one shard's slice of a fleet: a dynamic set of members
// (initially the flows congruent to the partition index modulo the
// shard count; failover can re-home whole residue classes onto a
// survivor) running on their own discrete-event loop with their own
// rollout pool and scratch arenas. Partitions never touch the shared bottleneck
// directly — members send into an Outbox the shard coordinator merges
// in canonical order and replays onto the one authoritative bottleneck
// loop — and they receive acknowledgments only through ScheduleAck,
// which the coordinator calls at each coupling-window start with the
// (at most one) completion the window can contain. Within a window a
// partition therefore depends on nothing outside itself, which is what
// lets K partitions run on K goroutines while reproducing the
// single-loop fleet bit for bit.
//
// Partition is the fleet's member machinery re-hosted, not a new
// behavior: the embedded host is the one Fleet embeds (Cfg, Loop, Pool,
// Caches, the sender wiring and the batching scheduler), always under
// canonical flow-order scheduling. What Partition adds is what a
// lifecycle needs and a static Fleet does not: members that come and
// go, and the per-flow ledger that fences one generation's counters
// from the next.
type Partition struct {
	host
	// Out collects the window's injected packets for the coordinator.
	Out *Outbox

	// members and flows key the partition's dynamic residency by flow
	// ID. The maps are never iterated — every access is a point lookup,
	// and batch work drains through the canonical flow-sorted dirty
	// list — so map order can never leak into results.
	members map[packet.FlowID]*Member
	flows   map[packet.FlowID]*Ledger

	// ackTimer replays the coordinator-peeked acknowledgment at its
	// exact receive instant; one reusable timer suffices because a
	// coupling window contains at most one completion.
	ackTimer   *sim.Timer
	pendingAck packet.Ack
}

// Outbox is the elements.Node a partition's members send into: it
// records the packets in emission order for the coordinator to merge.
type Outbox struct {
	// Pkts are the window's packets in the order members emitted them.
	Pkts []packet.Packet
}

// Receive implements elements.Node.
func (o *Outbox) Receive(p packet.Packet) { o.Pkts = append(o.Pkts, p) }

// Reset clears the outbox for the next window, keeping capacity.
func (o *Outbox) Reset() { o.Pkts = o.Pkts[:0] }

// NewPartition builds one partition over the RESOLVED fleet
// configuration (call Config.Resolved first; Workers here is the
// per-partition pool width). No members are attached; the coordinator
// attaches and starts them so admission order and stagger offsets are
// identical to the single-loop fleet's.
func NewPartition(cfg Config, caches *planner.CacheStripes) *Partition {
	// Partition members are always canonical: the coordinator's merge
	// delivers cross-shard events in flow order, so local wakes must
	// drain the same way.
	cfg.Canonical = true
	p := &Partition{
		Out:     &Outbox{},
		members: make(map[packet.FlowID]*Member),
		flows:   make(map[packet.FlowID]*Ledger),
	}
	p.init(cfg, caches)
	p.ackTimer = sim.NewTimer(p.Loop, p.deliverAck)
	return p
}

// rec returns the flow's cross-generation ledger, creating it on first
// touch.
func (p *Partition) rec(flow packet.FlowID) *Ledger {
	r := p.flows[flow]
	if r == nil {
		r = &Ledger{}
		p.flows[flow] = r
	}
	return r
}

// MemberAt returns the flow's live member, nil when vacant or foreign.
func (p *Partition) MemberAt(flow packet.FlowID) *Member {
	return p.members[flow]
}

// AttachCold occupies flow with a fresh cold-from-the-prior member
// generation, fencing its counters at the supplied shared-bottleneck
// readings (the coordinator owns the receiver and drop maps). The
// member is not started.
func (p *Partition) AttachCold(flow packet.FlowID, baseDelivered, baseDrops int) *Member {
	return p.attach(flow, p.newSender(flow), baseDelivered, baseDrops)
}

// AttachSender occupies flow with a caller-built sender — one warm-
// restored from a lifecycle checkpoint — wiring it into the shared
// cache/table first. The member is not started.
func (p *Partition) AttachSender(flow packet.FlowID, s *core.Sender, baseDelivered, baseDrops int) *Member {
	return p.attach(flow, p.wireSender(s, flow), baseDelivered, baseDrops)
}

func (p *Partition) attach(flow packet.FlowID, s *core.Sender, baseDelivered, baseDrops int) *Member {
	if p.members[flow] != nil {
		panic("fleet: partition flow already occupied")
	}
	rec := p.rec(flow)
	m := p.member(flow, s, p.Out)
	m.Gen = rec.Gens
	rec.Gens++
	m.baseDelivered = baseDelivered
	m.baseDrops = baseDrops
	p.members[flow] = m
	return m
}

// RetireMember tears the flow's member down: the member stops deciding
// and sending immediately (its wake timer is disarmed and late wakes
// are no-ops) while its in-flight packets drain through the bottleneck,
// counted by the coordinator as orphan acknowledgments toward the
// flow's recycling fence. Its fenced counters freeze at the supplied
// shared-bottleneck readings: drops and deliveries charged after this
// instant belong to the flow's next occupant. Returns the retired
// member (its series and counters stay readable), nil when vacant.
func (p *Partition) RetireMember(flow packet.FlowID, delivered, rawDrops int) *Member {
	m := p.members[flow]
	if m == nil {
		return nil
	}
	m.retired = true
	m.timer.Stop()
	m.acks = m.acks[:0]
	m.GenDrops = rawDrops - m.baseDrops
	m.GenDelivered = delivered - m.baseDelivered
	p.rec(flow).Injected += m.Injected
	delete(p.members, flow)
	return m
}

// Ledger is one flow's cross-generation accounting — packets retired
// generations injected and the generation counter — transferred
// between partitions when a failover re-homes the flow. It is
// coordinator-owned bookkeeping, not shard-resident member state, so
// it survives a shard loss by construction.
type Ledger struct {
	// Injected counts packets retired generations injected.
	Injected int64
	// Gens is the number of generations the flow has hosted.
	Gens uint32
}

// Remove strips the flow's ledger from the partition for transfer to a
// new home; the flow must have no live member (RetireMember first).
// ok is false when the partition never touched the flow.
func (p *Partition) Remove(flow packet.FlowID) (led Ledger, ok bool) {
	if p.members[flow] != nil {
		panic("fleet: removing a flow with a live member")
	}
	r := p.flows[flow]
	if r == nil {
		return Ledger{}, false
	}
	delete(p.flows, flow)
	return *r, true
}

// Install adopts a flow's ledger transferred from its previous home.
func (p *Partition) Install(flow packet.FlowID, led Ledger) {
	if p.flows[flow] != nil || p.members[flow] != nil {
		panic("fleet: installing over an occupied flow")
	}
	p.flows[flow] = &led
}

// BumpDeliveryFence advances the live member's admission-time delivery
// fence by n: the coordinator calls it when it swallows a fenced
// acknowledgment (a post-checkpoint in-flight packet of a failed-over
// predecessor), so the delivery is excluded from the restored
// generation's Delivered. No-op when the flow is vacant.
func (p *Partition) BumpDeliveryFence(flow packet.FlowID, n int) {
	if m := p.members[flow]; m != nil {
		m.baseDelivered += n
	}
}

// InjectedTotal reports packets the flow injected across every
// generation, live member included — the coordinator's in-flight
// accounting input.
func (p *Partition) InjectedTotal(flow packet.FlowID) int64 {
	var inj int64
	if r := p.flows[flow]; r != nil {
		inj = r.Injected
	}
	if m := p.members[flow]; m != nil {
		inj += m.Injected
	}
	return inj
}

// NextGen reports the generation the next member admitted on the flow
// will receive.
func (p *Partition) NextGen(flow packet.FlowID) uint32 {
	if r := p.flows[flow]; r != nil {
		return r.Gens
	}
	return 0
}

// BaseDelivered reports the live member's admission-time delivery
// fence: a recycled flow ID never inherits its predecessor's counters,
// so deliveries that predate the admission — a predecessor's in-flight
// packets still draining included — are excluded from the member's
// count. ok is false when vacant.
func (p *Partition) BaseDelivered(flow packet.FlowID) (base int, ok bool) {
	m := p.MemberAt(flow)
	if m == nil {
		return 0, false
	}
	return m.baseDelivered, true
}

// BaseDrops is BaseDelivered's drop-side counterpart.
func (p *Partition) BaseDrops(flow packet.FlowID) (base int, ok bool) {
	m := p.MemberAt(flow)
	if m == nil {
		return 0, false
	}
	return m.baseDrops, true
}

// ScheduleAck arms the window's one peeked acknowledgment for delivery
// at its exact receive instant on the partition loop. Must be called
// before RunTo for the window containing a.ReceivedAt.
func (p *Partition) ScheduleAck(a packet.Ack) {
	p.pendingAck = a
	p.ackTimer.ArmAt(a.ReceivedAt)
}

func (p *Partition) deliverAck() {
	a := p.pendingAck
	m := p.MemberAt(a.Flow)
	if m == nil || m.retired {
		// The coordinator checks liveness at peek time; a vacancy here
		// would be a barrier bookkeeping bug, but stay graceful.
		return
	}
	m.OnAck(a)
}

// RunTo drives the partition loop to the absolute virtual time t,
// firing every member event at or before it.
func (p *Partition) RunTo(t time.Duration) { p.Loop.Run(t) }

// NextEventTime reports the partition's earliest pending event, for the
// coordinator's idle-window skip-ahead.
func (p *Partition) NextEventTime() (time.Duration, bool) { return p.Loop.PeekTime() }
