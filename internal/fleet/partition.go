package fleet

import (
	"time"

	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/sim"
)

// Partition is one shard's host: a private discrete-event loop, rollout
// pool and scratch arenas on which the members of the flows homed here
// (initially those congruent to the partition index modulo the shard
// count; failover can re-home whole residue classes onto a survivor) wake,
// update their beliefs and plan. It holds no membership: the shard
// coordinator's Roster decides who is live, builds each generation on its
// flow's home partition, and is changed only at barriers. Partitions never
// touch the shared bottleneck directly — members send into an Outbox the
// coordinator merges in canonical order and replays onto the one
// authoritative bottleneck loop — and they receive acknowledgments only
// through ScheduleAck, which the coordinator calls at each coupling-window
// start with the (at most one) completion the window can contain and the
// member it is for. Within a window a partition therefore depends on
// nothing outside itself, which is what lets K partitions run on K
// goroutines while reproducing the single-loop fleet bit for bit.
//
// The embedded host is the one Fleet embeds (Cfg, Loop, Pool, the member
// building and the batching scheduler), always under canonical flow-order
// scheduling.
type Partition struct {
	host
	// Out collects the window's injected packets for the coordinator.
	Out *Outbox

	// ackTimer replays the coordinator-peeked acknowledgment to its member
	// at its exact receive instant; one reusable timer suffices because a
	// coupling window contains at most one completion.
	ackTimer *sim.Timer
	ackTo    *Member
	ack      packet.Ack
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
// configuration (call Config.Resolved first) and the coordinator's
// policy cache. The coordinator's roster builds members on it
// (Roster.Coordinate), so admission order and stagger offsets are
// identical to the single-loop fleet's.
func NewPartition(cfg Config, caches *planner.CacheStripes) *Partition {
	// Partition members are always canonical: the coordinator's merge
	// delivers cross-shard events in flow order, so local wakes must
	// drain the same way.
	cfg.Canonical = true
	p := &Partition{Out: &Outbox{}}
	p.init(cfg, sim.New(cfg.Seed), caches, p.Out)
	p.ackTimer = sim.NewTimer(p.Loop, func() { p.ackTo.OnAck(p.ack) })
	return p
}

// ScheduleAck arms a, the window's one peeked acknowledgment, for delivery
// to m at its exact receive instant on the partition loop. Must be called
// before RunTo for the window containing a.ReceivedAt. The coordinator
// reads m from its roster; m stays live through the window because the
// roster changes only at barriers.
func (p *Partition) ScheduleAck(m *Member, a packet.Ack) {
	p.ackTo, p.ack = m, a
	p.ackTimer.ArmAt(a.ReceivedAt)
}

// RunTo drives the partition loop to the absolute virtual time t,
// firing every member event at or before it.
func (p *Partition) RunTo(t time.Duration) { p.Loop.Run(t) }

// NextEventTime reports the partition's earliest pending event, for the
// coordinator's idle-window skip-ahead.
func (p *Partition) NextEventTime() (time.Duration, bool) { return p.Loop.PeekTime() }
