package fleet

import (
	"fmt"
	"sort"
	"time"

	"modelcc/internal/core"
	"modelcc/internal/elements"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/sim"
)

// Roster is the coordinator-owned half of a fleet: the one bottleneck
// every member's packets cross, the policy cache the members share, and,
// per flow, who is live there, which generation it is, and what each
// generation injected, had delivered and had dropped. Fleet and the
// sharded runtime (internal/shard) each embed one, so membership and the
// bottleneck's accounting are written once for both; the runtimes differ
// only in where a member is built (the single loop's host, or the
// partition that owns the flow) and in how an acknowledgment reaches it
// (the receiver's callback, or the coordinator's peek).
//
// Only the runtime's coordinating goroutine changes a Roster: the single
// loop at any event, the sharded coordinator at barriers. Partitions never
// touch it while a window runs.
type Roster struct {
	// Members is the slot-indexed member table: flow f's live member, nil
	// while f is vacant.
	Members []*Member
	// Buffer is the shared tail-drop bottleneck queue (nil when
	// Config.FairQueue selected the DRR scheduler).
	Buffer *elements.Buffer
	// FQ is the DRR bottleneck queue (nil unless Config.FairQueue).
	FQ *elements.FairQueue
	// Link is the bottleneck's drain.
	Link *elements.Throughput
	// Recv counts deliveries per flow, across generations.
	Recv *elements.Receiver
	// Caches is the fleet-wide policy cache, split into fixed stripes
	// keyed by flow mod stripe count (nil when disabled). Striping, not
	// the shard count, decides which members share entries — see
	// planner.CacheStripes. A partition touches only the stripes of the
	// flows it hosts, disjoint from every other partition's because the
	// shard count divides the stripe count, so no synchronization is
	// needed.
	Caches *planner.CacheStripes
	// OrphanAcks counts acknowledgments that arrived for a flow with no
	// live member — the in-flight packets of a retired member draining
	// through the bottleneck. They are never a panic: teardown is
	// graceful by construction.
	OrphanAcks int64

	// q is the bottleneck ingress.
	q elements.Node
	// ledgers is indexed by flow in lockstep with Members.
	ledgers []ledger
	// live is the sorted index of occupied slots, so Live is O(1) and
	// lifecycle sweeps iterate live members without scanning every slot
	// ever allocated.
	live []packet.FlowID
	// degradedRetired sums retired members' DegradedServed.
	degradedRetired int64
	// hostOf returns the host that builds the flow's members.
	hostOf func(packet.FlowID) *host
}

// ledger is one flow's accounting across its member generations.
type ledger struct {
	// gens is the number of generations the flow has hosted.
	gens uint32
	// injected counts packets retired generations injected.
	injected int64
	// delivered and drops fence the live generation: the flow's receiver
	// and drop readings when it attached, plus any deliveries the runtime
	// swallowed since (SkipDelivery).
	delivered, drops int
}

// setup builds the bottleneck on loop and the shared policy cache; when
// direct, the receiver hands each acknowledgment straight to its member.
// hostOf builds the flow's members. cfg must be resolved.
func (r *Roster) setup(cfg Config, loop *sim.Loop, hostOf func(packet.FlowID) *host, direct bool) {
	r.hostOf = hostOf
	if !cfg.NoSharedCache {
		r.Caches = planner.NewCacheStripes(cfg.CacheStripes, cfg.CacheEntries)
		// Coarse fingerprints: members in near-identical recurring
		// situations share one computed decision. 50 ms buckets are
		// well under the coarsest planning grid in use here.
		r.Caches.SetQuanta(50*time.Millisecond, 1e-3)
	}
	var onAck func(packet.Ack)
	if direct {
		onAck = r.deliver
	}
	r.Recv = elements.NewReceiver(loop, onAck)
	if cfg.FairQueue {
		r.FQ = elements.NewFairQueue(cfg.BufferCapBits)
		r.Link = elements.NewThroughput(loop, cfg.LinkRate, r.Recv)
		r.FQ.AttachDrain(r.Link)
		r.q = r.FQ
	} else {
		r.Buffer, r.Link = elements.NewBottleneck(loop, cfg.BufferCapBits, cfg.LinkRate, r.Recv)
		r.q = r.Buffer
	}
	r.Members = make([]*Member, 0, cfg.N)
	r.ledgers = make([]ledger, 0, cfg.N)
}

// Coordinate sets r up as a sharded runtime's roster over the resolved
// cfg: the bottleneck runs on the coordinator's loop and only counts
// deliveries — the coordinator peeks each one and hands it to the
// member's partition (Partition.ScheduleAck) — and the flow's members
// are built on owner(flow).
func (r *Roster) Coordinate(cfg Config, loop *sim.Loop, owner func(packet.FlowID) *Partition) {
	r.setup(cfg, loop, func(flow packet.FlowID) *host { return &owner(flow).host }, false)
}

// deliver is the single loop's receiver callback: the acknowledgment goes
// to the flow's live member, or counts as an orphan when it has none (a
// retired member's in-flight packets keep draining to the receiver).
func (r *Roster) deliver(a packet.Ack) {
	if m := r.MemberAt(a.Flow); m != nil {
		m.OnAck(a)
		return
	}
	r.OrphanAcks++
}

// Ingress is the node packets enter the bottleneck through.
func (r *Roster) Ingress() elements.Node { return r.q }

// Attach occupies the vacant flow with snd — a cold sender from the prior
// when nil, else a caller-built one such as a warm-restored checkpoint —
// wired into the shared cache or compiled table, as the flow's next
// generation, and starts it offset after now. Deliveries and drops that
// predate the attach are fenced out of the generation's Delivered and
// FlowDrops; a restart therefore waits for the flow to drain, and a
// failover restore, which cannot wait, has its runtime swallow the
// predecessor's later deliveries with SkipDelivery.
func (r *Roster) Attach(flow packet.FlowID, snd *core.Sender, offset time.Duration) *Member {
	m := r.attach(flow, snd)
	m.Start(offset)
	return m
}

// attach is Attach without the start.
func (r *Roster) attach(flow packet.FlowID, snd *core.Sender) *Member {
	for int(flow) >= len(r.Members) {
		r.Members = append(r.Members, nil)
		r.ledgers = append(r.ledgers, ledger{})
	}
	if r.Members[flow] != nil {
		// Invariant, not a runtime condition: admission picks vacant
		// flows; occupying a live one is a caller bug.
		panic("fleet: flow already occupied")
	}
	m := r.hostOf(flow).build(flow, snd)
	l := &r.ledgers[flow]
	m.Gen = l.gens
	l.gens++
	l.delivered, l.drops = r.Recv.Received[flow], r.rawDrops(flow)
	r.Members[flow] = m
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i] >= flow })
	r.live = append(r.live, 0)
	copy(r.live[i+1:], r.live[i:])
	r.live[i] = flow
	return m
}

// Retire tears the flow's member down: it stops deciding and sending at
// once (its wake timer is disarmed and late wakes are no-ops), while its
// in-flight packets drain through the bottleneck, counted as orphan
// acknowledgments toward the flow's recycling fence. The generation's
// GenDelivered and GenDrops freeze: deliveries and drops charged after
// this instant belong to the flow's next occupant. Returns the retired
// member (its series and counters stay readable), nil when vacant.
func (r *Roster) Retire(flow packet.FlowID) *Member {
	m := r.MemberAt(flow)
	if m == nil {
		return nil
	}
	m.retired = true
	m.timer.Stop()
	m.acks = m.acks[:0]
	m.GenDelivered, m.GenDrops = r.genCounts(flow)
	r.ledgers[flow].injected += m.Injected
	r.degradedRetired += m.DegradedServed()
	r.Members[flow] = nil
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i] >= flow })
	r.live = append(r.live[:i], r.live[i+1:]...)
	return m
}

// SkipDelivery excludes one delivery for the flow from its live
// generation's Delivered: the sharded runtime calls it when it swallows a
// failed-over predecessor's post-checkpoint in-flight packet. No-op when
// the flow is vacant.
func (r *Roster) SkipDelivery(flow packet.FlowID) {
	if r.MemberAt(flow) != nil {
		r.ledgers[flow].delivered++
	}
}

// MemberAt returns the flow's live member, nil when vacant.
func (r *Roster) MemberAt(flow packet.FlowID) *Member {
	if int(flow) >= len(r.Members) {
		return nil
	}
	return r.Members[flow]
}

// MemberSlots returns the slot-indexed member table (vacant slots are
// nil), the read surface reductions share across runtimes. Callers must
// not modify it.
func (r *Roster) MemberSlots() []*Member { return r.Members }

// Slots is the flow-space size: flows ever allocated are 0..Slots()-1.
func (r *Roster) Slots() int { return len(r.Members) }

// Live reports the number of live members.
func (r *Roster) Live() int { return len(r.live) }

// LiveFlows appends the live flows in ascending order to buf and returns
// the result; pass a reused buffer to make the snapshot allocation-free.
func (r *Roster) LiveFlows(buf []packet.FlowID) []packet.FlowID { return append(buf, r.live...) }

// NextGen reports the generation the flow's next member will receive, so
// a restart can compute its stagger offset before attaching.
func (r *Roster) NextGen(flow packet.FlowID) uint32 {
	if int(flow) >= len(r.ledgers) {
		return 0
	}
	return r.ledgers[flow].gens
}

// rawDrops reports the flow's bottleneck drops across all generations.
func (r *Roster) rawDrops(flow packet.FlowID) int {
	if r.Buffer != nil {
		return r.Buffer.Drops[flow]
	}
	return r.FQ.Drops[flow]
}

// genCounts reports the flow's deliveries and drops since its live
// generation's fences.
func (r *Roster) genCounts(flow packet.FlowID) (delivered, drops int) {
	l := &r.ledgers[flow]
	return r.Recv.Received[flow] - l.delivered, r.rawDrops(flow) - l.drops
}

// Delivered reports packets delivered for the flow's live generation. A
// recycled flow never inherits its predecessor's counters: a
// predecessor's packets still draining after a restart are fenced out.
// Zero when the flow has no live member.
func (r *Roster) Delivered(flow packet.FlowID) int {
	if r.MemberAt(flow) == nil {
		return 0
	}
	d, _ := r.genCounts(flow)
	return d
}

// FlowDrops reports bottleneck drops for the flow's live generation,
// fenced like Delivered. Zero when vacant.
func (r *Roster) FlowDrops(flow packet.FlowID) int {
	if r.MemberAt(flow) == nil {
		return 0
	}
	_, d := r.genCounts(flow)
	return d
}

// DeliveredTotal reports deliveries for the flow across every generation
// that ever used it (the raw receiver counter).
func (r *Roster) DeliveredTotal(flow packet.FlowID) int { return r.Recv.Received[flow] }

// InFlight reports how many of the flow's injected packets — every
// generation's — are still inside the bottleneck, neither delivered nor
// dropped. Flow recycling waits for zero so a successor's fenced
// counters can never absorb a predecessor's stragglers.
func (r *Roster) InFlight(flow packet.FlowID) int64 {
	if int(flow) >= len(r.ledgers) {
		return 0
	}
	inj := r.ledgers[flow].injected
	if m := r.Members[flow]; m != nil {
		inj += m.Injected
	}
	return inj - int64(r.Recv.Received[flow]) - int64(r.rawDrops(flow))
}

// Drops reports total bottleneck drops across all flows and generations,
// summed in flow order (never over a Go map) so callers stay
// deterministic.
func (r *Roster) Drops() int {
	total := 0
	for i := range r.ledgers {
		total += r.rawDrops(packet.FlowID(i))
	}
	return total
}

// DegradedServed totals decisions served while degraded across every
// member generation, retired ones included.
func (r *Roster) DegradedServed() int64 {
	total := r.degradedRetired
	for _, m := range r.Members {
		if m != nil {
			total += m.DegradedServed()
		}
	}
	return total
}

// CacheStats reports the shared policy cache's Decide-path hit/miss
// counters summed over stripes (zeros when the cache is disabled). Guard
// fallback probes are counted separately (PolicyCache.ProbeHits/
// ProbeMisses), so this hit rate does not double-count budget-blown
// decisions. Call only between events (sharded: between windows).
func (r *Roster) CacheStats() (hits, misses int) {
	if r.Caches == nil {
		return 0, 0
	}
	return r.Caches.Stats()
}

// Conserved checks the bottleneck's books: no flow has a negative number
// of packets in flight, and the flows' in-flight packets, summed, are
// exactly those the bottleneck holds, queued or in service. It holds
// between any two events of the single loop and between any two windows
// of the sharded runtime.
func (r *Roster) Conserved() error {
	var inFlight int64
	for i := range r.ledgers {
		n := r.InFlight(packet.FlowID(i))
		if n < 0 {
			return fmt.Errorf("flow %d: %d packets in flight", i, n)
		}
		inFlight += n
	}
	var held int64
	if r.Buffer != nil {
		held = int64(r.Buffer.Len())
	} else {
		held = int64(r.FQ.Len())
	}
	if _, _, busy := r.Link.InService(); busy {
		held++
	}
	if inFlight != held {
		return fmt.Errorf("flows have %d packets in flight, the bottleneck holds %d", inFlight, held)
	}
	return nil
}
