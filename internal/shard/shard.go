// Package shard runs a fleet of ISENDERs as K parallel per-shard
// discrete-event loops coupled through the one shared bottleneck by a
// conservative time-windowed coordinator, bit identical at any shard
// count. New forces the two fleet knobs sharding depends on —
// fleet.Config.Canonical (flow-order same-instant scheduling) and a
// cache striped planner.DefaultCacheStripes ways — and a single-loop
// fleet.Fleet built with those same knobs reproduces a sharded run bit
// for bit. A default single-loop fleet keeps its historical
// arrival-order trajectory, which differs event for event and, on the
// tail-drop FIFO bottleneck, in fairness: member wake times share the
// link's service-time lattice, so same-instant ties are the rule, and
// flow order hands each freed buffer slot to the lowest-numbered
// waiting flow (a steady N = 16 fleet reads Jain 0.43 canonical against
// 0.95 in arrival order; the DRR bottleneck reads ≈ 1 either way).
//
// # The windowed protocol
//
// Flow f lives on shard f mod K. Each shard is a fleet.Partition: its
// members, their wake timers, belief updates and planner rollouts all
// run on a private sim.Loop with private scratch arenas, so K shards
// occupy K goroutines with no shared mutable state. The coordinator owns
// the rest in one fleet.Roster, the same type the single-loop fleet
// embeds: the bottleneck — buffer, link, receiver — on one authoritative
// loop, and per flow the live member, its generation and the counters
// that fence one generation from the next. Membership changes only at
// barriers, so a partition holds none: the roster builds each generation
// on the flow's home partition and hands the peeked acknowledgment over
// with its member.
//
// Virtual time advances in windows of Δ = the bottleneck's service
// time for one (uniform-size) packet, the conservative lookahead: no
// packet injected after a window opens can be delivered inside it,
// because its service completes at least Δ after the window opened.
// One round is:
//
//  1. Peek. At the window start the coordinator inspects the link's
//     in-service packet. At most ONE delivery can land inside the
//     window — the in-service packet (anything behind it completes a
//     full service time later) — and a delivery inside the window
//     implies its service began at or before the window start, so the
//     peek can never miss one. The resulting acknowledgment is handed
//     to the owning shard, scheduled at its exact receive instant.
//     The implication needs every instant ≤ the window start to be
//     fully processed BEFORE the peek; two edges enforce that: Run
//     opens with a zero-width step that settles instant 0 (member
//     starts at offset zero and their injections) before the first
//     window, and barrier-time admissions clamp their start offsets
//     strictly positive so no member event ever lands exactly on a
//     barrier the coordinator has already opened.
//  2. Run. All K shards run their loops to the window end in
//     parallel. Each shard's sends land in its outbox.
//  3. Merge. The coordinator gathers the outboxes and sorts the
//     packets by (SentAt, Flow, Seq) — the canonical order, identical
//     to the order a single-loop fleet under Config.Canonical would
//     have generated them in, because the canonical scheduler drains
//     same-instant wakes in flow order (see fleet.drain).
//  4. Replay. The merged packets are injected into the bottleneck
//     loop at their exact send times — each re-arming an event bound
//     once, in merge order, so the replay allocates nothing — and that
//     loop runs to the window end, evolving queue state, drops and
//     service identically to the single-loop run.
//
// When no shard has an event inside the next window, no delivery is
// pending and no lifecycle action is due, the coordinator jumps the
// clock to the window (on the Δ grid) containing the earliest pending
// event instead of grinding through empty windows.
//
// # Why determinism survives
//
// Every cross-shard interaction is funneled through two K-invariant
// channels: the merged injection order (canonical, arrival-order-free)
// and the peeked acknowledgment (a pure function of bottleneck state).
// The policy cache is split into planner.DefaultCacheStripes
// independent stripes keyed by flow mod stripe count; shard counts are
// restricted to divisors of the stripe count, so each stripe is only
// ever touched by one shard (no locks) and the per-stripe operation
// sequence — hence every hit, miss and cached decision — depends only
// on the fixed stripe partition, never on K. Shard loop RNGs are
// untouched by fleet topologies. The Workers knob composes: in a
// sharded fleet it is the per-shard rollout pool width (default
// GOMAXPROCS/K), and rollout results are bit-identical for any width.
//
// The member lifecycle is one policy, lifecycle.Controller, on two
// clocks. The coordinator embeds it and drives it at window boundaries
// (every due time snapped up to the Δ grid), in flow order, so the event
// log and replay hash are identical for every shard count (churn.go);
// the single-loop lifecycle.Supervisor drives the same policy at exact
// mid-window instants on the arrival-order fleet. The two agree on
// lifecycle counters within seed-to-seed spread and differ on FIFO
// fairness for the reason above, which is why both clocks still exist.
// Every restart — churn or failover — climbs the controller's one
// warm→hot→cold ladder, from barrier-time checkpoints when
// EnableCheckpoints is armed; the coordinator additionally survives the
// loss or stall of a whole shard (EnableFaults) — see
// fault.go for the virtual-shard failover protocol and degraded
// serving.
package shard

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/sim"
	"modelcc/internal/units"
)

// Config describes a sharded fleet run.
type Config struct {
	// Fleet is the underlying fleet configuration. Workers here is the
	// TOTAL rollout budget; each shard's pool gets Workers/K (min 1).
	// Zero keeps the fleet default (GOMAXPROCS) as the total. Canonical
	// and CacheStripes are not inputs: New forces them to true and
	// planner.DefaultCacheStripes whatever the caller set.
	Fleet fleet.Config
	// Shards is the requested shard count; 0 means runtime.NumCPU().
	// The effective count is the largest power of two at most the
	// request and at most planner.DefaultCacheStripes, so it always
	// divides the cache stripe count (the determinism invariant).
	Shards int
}

// ResolveShards maps a requested shard count to the effective one.
func ResolveShards(req int) int {
	if req <= 0 {
		req = runtime.NumCPU()
	}
	k := 1
	for k*2 <= req && k*2 <= planner.DefaultCacheStripes {
		k *= 2
	}
	return k
}

// Fleet is the sharded runtime: K fleet.Partitions coupled to one
// authoritative bottleneck loop. Build with New, arm the lifecycle
// subsystems a run needs (EnableChurn, EnableCheckpoints, EnableFaults),
// drive with Run.
type Fleet struct {
	// Cfg is the resolved fleet configuration.
	Cfg fleet.Config
	// K is the effective shard count.
	K int
	// Delta is the coupling window: one packet's service time on the
	// bottleneck, the conservative lookahead.
	Delta time.Duration
	// Parts are the shards; flow f lives on Parts[f mod K].
	Parts []*fleet.Partition
	// BLoop is the authoritative bottleneck loop.
	BLoop *sim.Loop
	// Roster is the bottleneck, on BLoop, the policy cache every shard
	// shares without locks, and the membership and per-flow accounting
	// fleet.Fleet keeps too. Only the coordinator changes it, at
	// barriers; partitions host members but hold none.
	fleet.Roster
	// Failover aggregates shard-fault outcomes (zero without faults).
	Failover FailoverStats
	// Controller is the lifecycle policy, run at barriers. Its Records
	// hold one entry per member generation, initial members included;
	// its Events and Stats stay empty without churn or faults.
	lifecycle.Controller

	now         time.Duration
	started     bool
	zeroStep    bool
	churn       *churnState
	checkpoints *ckptState
	fault       *faultState
	merged      []packet.Packet
	// inject holds the replay's events, one per packet of the busiest
	// window so far (replay).
	inject []*injection
	// home maps each virtual shard (stripe residue class, flow mod
	// DefaultCacheStripes) to the partition hosting it — the stripe
	// ownership table. Initially v mod K; failover re-homes a killed
	// virtual shard by rewriting its entry, which migrates both its
	// flows and its policy-cache stripe in one move.
	home [planner.DefaultCacheStripes]int
	// fences are per-flow (from, to] SentAt windows whose deliveries
	// are swallowed at the peek: the post-checkpoint in-flight sends of
	// a failed-over member generation, whose sequence numbers the
	// restored generation will reuse.
	fences map[packet.FlowID][]fenceWin
}

// New builds the sharded runtime. Nothing runs until Run.
func New(cfg Config) *Fleet {
	// Sharding requires canonical same-instant scheduling (the
	// cross-shard merge replays events in flow order, so partition-local
	// wakes must drain the same way) and a striped cache (partitions own
	// disjoint stripe subsets). Both are forced — owner(), VirtualShards
	// and the no-lock stripe contract assume DefaultCacheStripes; fewer
	// stripes would have two partition goroutines share one. A
	// single-loop fleet.Fleet reproduces a sharded run bit for bit only
	// with fleet.Config{Canonical: true, CacheStripes:
	// planner.DefaultCacheStripes}.
	cfg.Fleet.Canonical = true
	cfg.Fleet.CacheStripes = planner.DefaultCacheStripes
	fc := cfg.Fleet.Resolved()
	k := ResolveShards(cfg.Shards)
	sf := &Fleet{
		Cfg:   fc,
		K:     k,
		Delta: units.TransmitTime(packet.DefaultSizeBits, fc.LinkRate()),
		BLoop: sim.New(fc.Seed),
	}
	sf.Coordinate(fc, sf.BLoop, sf.owner)
	pc := fc
	pc.Workers = perShardWorkers(fc.Workers, k)
	for i := 0; i < k; i++ {
		sf.Parts = append(sf.Parts, fleet.NewPartition(pc, sf.Caches))
	}
	for v := range sf.home {
		sf.home[v] = v % k
	}
	sf.Bind(sf, fc)
	return sf
}

// perShardWorkers splits the total rollout budget across shards.
func perShardWorkers(total, k int) int {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	w := total / k
	if w < 1 {
		w = 1
	}
	return w
}

func (sf *Fleet) owner(flow packet.FlowID) *fleet.Partition {
	return sf.Parts[sf.home[int(flow)%planner.DefaultCacheStripes]]
}

// MemoStats sums the partitions' rollout-memo counters (one memo per
// partition pool). Call only between windows or after Run.
func (sf *Fleet) MemoStats() planner.MemoStats {
	var st planner.MemoStats
	for _, p := range sf.Parts {
		st.Add(planner.PoolMemoStats(p.Pool))
	}
	return st
}

// Now reports the coordinator's barrier time.
func (sf *Fleet) Now() time.Duration { return sf.now }

// start attaches the initial members, each at its fleet.StartOffset, as
// fleet.Fleet.Start places them. They attach through the roster's
// unclamped Attach: member 0 starts at instant 0, which Run settles with
// a zero-width step before the first window opens.
func (sf *Fleet) start() {
	if sf.started {
		return
	}
	sf.started = true
	for i := 0; i < sf.Cfg.N; i++ {
		flow := packet.FlowID(i)
		sf.Initial(sf.Roster.Attach(flow, nil, fleet.StartOffset(sf.Cfg, flow, sf.Roster.NextGen(flow))))
	}
}

// barrier executes every due barrier-time subsystem in a fixed order:
// checkpoint sweeps (so a kill landing on the same barrier restores
// from the freshest possible state), fault processing (stall
// transitions, then kills and their failovers), then the churn
// lifecycle.
func (sf *Fleet) barrier() {
	if sf.checkpoints != nil {
		sf.checkpointSweep()
	}
	if sf.fault != nil {
		sf.faultBarrier()
	}
	if sf.churn != nil {
		sf.lifecycleBarrier()
	}
}

// Run drives the sharded fleet to the absolute virtual time d.
func (sf *Fleet) Run(d time.Duration) {
	sf.start()
	if !sf.zeroStep {
		// Process instant 0 as its own zero-width step. Member starts at
		// offset 0 fire here, and their injections replay onto the
		// bottleneck BEFORE the first real window opens — so a service
		// beginning exactly at t=0 is in flight at the first peek, like
		// every later window-start service. Without this, a completion
		// landing exactly on the first barrier would be invisible to the
		// peek (the link was idle when the window opened).
		sf.zeroStep = true
		sf.window(0)
	}
	for sf.now < d {
		sf.barrier()
		end := sf.now + sf.Delta
		if end > d {
			end = d
		}
		// Idle skip-ahead: when nothing can happen inside this window —
		// or for many windows after it — jump the clock along the Δ
		// grid to the window containing the earliest pending event.
		if t, ok := sf.nextAnything(d); !ok {
			sf.advanceAll(d)
			sf.now = d
			break
		} else if t > end {
			k := (t - 1) / sf.Delta // window (kΔ, (k+1)Δ] contains t
			w := k * sf.Delta
			if w > sf.now {
				sf.advanceAll(w)
				sf.now = w
			}
			continue
		}
		sf.window(end)
		sf.now = end
	}
}

// nextAnything reports the earliest pending instant in the whole
// system: shard events, the in-service completion, lifecycle dues.
func (sf *Fleet) nextAnything(limit time.Duration) (time.Duration, bool) {
	best := time.Duration(math.MaxInt64)
	ok := false
	for _, p := range sf.Parts {
		if t, has := p.NextEventTime(); has && t < best {
			best, ok = t, true
		}
	}
	if _, doneAt, has := sf.Link.InService(); has && doneAt < best {
		best, ok = doneAt, true
	}
	if t, has := sf.BLoop.PeekTime(); has && t < best {
		// Defensive: the bottleneck loop's own queue (e.g. a queued
		// service start) also bounds the skip.
		best, ok = t, true
	}
	if sf.churn != nil {
		if t := sf.churn.nextDue(); t < best {
			best, ok = t, true
		}
	}
	if sf.checkpoints != nil && sf.checkpoints.next < best {
		best, ok = sf.checkpoints.next, true
	}
	if sf.fault != nil {
		if t := sf.fault.nextDue(); t < best {
			best, ok = t, true
		}
	}
	if best > limit {
		// Nothing before the end of the run still counts as "something"
		// so the caller advances to limit, not past it.
		return best, ok && best <= limit
	}
	return best, ok
}

// advanceAll moves every loop's clock to t without firing anything
// (nothing is pending before t by construction).
func (sf *Fleet) advanceAll(t time.Duration) {
	for _, p := range sf.Parts {
		p.RunTo(t)
	}
	sf.BLoop.Run(t)
}

// window executes one coupling round ending at end.
func (sf *Fleet) window(end time.Duration) {
	// 1. Peek: the at-most-one delivery this window can contain.
	if pkt, doneAt, ok := sf.Link.InService(); ok && doneAt <= end {
		m := sf.MemberAt(pkt.Flow)
		switch {
		case sf.fenced(pkt.Flow, pkt.SentAt):
			// A post-checkpoint in-flight send of a failed-over
			// generation: the restored sender will reuse its sequence
			// number, so delivering this acknowledgment would corrupt
			// the restored belief. Swallow it and advance the restored
			// generation's delivery fence so its Delivered stays its
			// own.
			sf.Failover.FencedAcks++
			sf.SkipDelivery(pkt.Flow)
		case m == nil:
			// Membership only changes at barriers, so the peek-time
			// check equals the delivery-time check the single-loop
			// fleet performs.
			sf.OrphanAcks++
		default:
			if r := sf.Record(pkt.Flow); r.FirstAckAt == 0 {
				r.FirstAckAt = doneAt
			}
			sf.owner(pkt.Flow).ScheduleAck(m, packet.Ack{
				Flow:       pkt.Flow,
				Seq:        pkt.Seq,
				ReceivedAt: doneAt,
				SentAt:     pkt.SentAt,
			})
		}
	}

	// 2. Run the shards to the window end in parallel. Members of a
	// stalled virtual shard serve this window degraded.
	sf.degrade()
	if sf.K == 1 {
		sf.Parts[0].RunTo(end)
	} else {
		var wg sync.WaitGroup
		for _, p := range sf.Parts {
			wg.Add(1)
			go func(p *fleet.Partition) {
				defer wg.Done()
				p.RunTo(end)
			}(p)
		}
		wg.Wait()
	}

	// 3. Merge the outboxes in canonical (SentAt, Flow, Seq) order —
	// the order the single-loop fleet generates: time first, and the
	// fleet scheduler wakes same-instant members in flow order. The
	// sort only reorders across shards; ties beyond Seq are impossible
	// (one member emits one (Flow, Seq) once).
	sf.merged = sf.merged[:0]
	for _, p := range sf.Parts {
		sf.merged = append(sf.merged, p.Out.Pkts...)
		p.Out.Reset()
	}
	slices.SortFunc(sf.merged, canonical)

	// 4. Replay onto the authoritative bottleneck at exact send times.
	// Same-instant ordering matches the single-loop run: a completion
	// at instant t was armed when its service began (< t), so its
	// sequence number is smaller than these injections' and it fires
	// first — exactly as the single loop fires the completion before
	// the drain that triggers the sends.
	sf.replay()
	sf.BLoop.Run(end)
}

// canonical is the merge order: (SentAt, Flow, Seq).
func canonical(a, b packet.Packet) int {
	if c := cmp.Compare(a.SentAt, b.SentAt); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Flow, b.Flow); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// injection is the bottleneck-loop event that injects one merged packet:
// bound once, then re-armed for a packet of every later window.
type injection struct {
	ev      sim.Event
	pkt     packet.Packet
	pending bool
}

// replay schedules the merged packets' injections at their send times.
// Each re-arms an event of sf.inject, in merge order, so every (at, seq)
// is what Schedule would have given it, and nothing is allocated once the
// events cover a window's packets. Every injection fires inside its own
// window; re-arming one still pending would drop its packet, so that
// panics instead.
func (sf *Fleet) replay() {
	for len(sf.inject) < len(sf.merged) {
		in, q := &injection{}, sf.Ingress()
		in.ev = sim.Bind(func() {
			in.pending = false
			q.Receive(in.pkt)
		})
		sf.inject = append(sf.inject, in)
	}
	for i, pkt := range sf.merged {
		in := sf.inject[i]
		if in.pending {
			// Invariant: window runs the loop past every injection it arms.
			panic("shard: replay re-armed an injection that has not fired")
		}
		in.pkt, in.pending = pkt, true
		sf.BLoop.Reschedule(&in.ev, pkt.SentAt)
	}
}

// Digest hashes the run's observable results — per-flow totals, drops,
// orphans, and every member's counters and aggregates — with FNV-1a.
// Two runs with equal digests produced bit-identical fleets. The same
// byte stream is produced by DigestFleet over a single-loop fleet, so
// shards=K can be asserted against the unsharded runtime.
func (sf *Fleet) Digest() uint64 { return digest(&sf.Roster) }

// DigestFleet is Digest computed over a single-loop fleet.
func DigestFleet(fl *fleet.Fleet) uint64 { return digest(&fl.Roster) }

func digest(r *fleet.Roster) uint64 {
	h := lifecycle.NewHasher()
	h.Put(uint64(r.Slots()), uint64(r.Live()), uint64(r.Drops()), uint64(r.OrphanAcks))
	for i, m := range r.Members {
		h.Put(uint64(i), uint64(r.DeliveredTotal(packet.FlowID(i))))
		if m == nil {
			h.Put(^uint64(0))
			continue
		}
		h.Put(uint64(m.Flow), uint64(m.Gen),
			uint64(m.Sender.Sent), uint64(m.Sender.Acked), uint64(m.Sender.Wakes),
			uint64(m.Injected), uint64(m.Delay.N),
			math.Float64bits(m.Delay.Sum), math.Float64bits(m.Utility))
	}
	return h.Sum()
}
