// Package fleet hosts N coexisting ISENDERs — from two to thousands —
// inside one process on a shared discrete-event loop, answering §3.5's
// open question ("we have not yet experimented with any networks that
// contain more than one ISENDER") at scale.
//
// Three mechanisms keep a large fleet affordable where N independent
// senders would not be:
//
//   - One rollout pool for the whole fleet. Every member's belief
//     updates and planner rollouts run on the same internal/rollout
//     pool (belief.Config.Pool / planner.Config.Pool), so one set of
//     scratch arenas — states, meters, event buffers — serves all N
//     senders instead of N copies of each.
//
//   - A central scheduler that batches wakeups. Acknowledgments
//     arriving at one virtual instant are coalesced per sender and the
//     dirty senders are drained in one pass, so a sender performs one
//     belief update per instant rather than one per acknowledgment,
//     and decision epochs are staggered across the fleet at start so
//     thousands of senders amortize over the timeline instead of
//     synchronizing into bursts.
//
//   - A shared planner.PolicyCache keyed by belief fingerprint. Fleet
//     members face recurring, near-identical situations (same prior,
//     same recurring steady states), so one member's computed decision
//     serves every other member that reaches the same belief.
//
// Each member models the other N-1 flows as the PINGER it knows how to
// reason about; for large N the modeled cross traffic is aggregated
// into coarse chunks (model.Params.CrossPktBits) so hypothesis advance
// cost stays bounded as the competitor count grows. The mismatch — the
// competitors are neither isochronous nor chunked — is absorbed by the
// soft observation likelihood, exactly as in the two-flow coexistence
// experiments this package generalizes.
//
// Everything is deterministic: the loop is single-goroutine, every belief
// update and rollout runs on it, and the scheduler drains same-instant
// wakes in the order they arrived (or, under Config.Canonical, in flow
// order), so a fleet run's output depends only on its Config.
//
// A fleet is two halves, shared with the sharded runtime
// (internal/shard), which couples K partitions through the one
// bottleneck with a conservative time-windowed coordinator, bit identical
// at any shard count. The Roster is the coordinator's half: the
// bottleneck, the policy cache, and per flow the live member, its
// generation and the counters that fence one generation from the next;
// Fleet and shard.Fleet each embed one. The host (host.go) is where
// members live: a loop and rollout pool, the building of a member wired
// into the cache or compiled table, and the batching scheduler. Fleet
// embeds one host; a Partition is a host on its own loop, holding no
// membership — the coordinator's Roster builds each generation on the
// flow's home partition. Sharded runs force two knobs a default
// single-loop fleet leaves off: Config.Canonical and a
// planner.CacheStripes split of the policy cache (flow mod 16, so
// partitions own disjoint stripes); a single-loop fleet with the same
// two knobs set reproduces a sharded run bit for bit. Config.LeanStats
// drops per-packet series retention (streaming moments and a P² tail
// quantile instead) so very large fleets stay flat in heap.
package fleet

import (
	"fmt"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/elements"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/sim"
	"modelcc/internal/stats"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// Config describes one fleet: N ISENDERs sharing one bottleneck.
type Config struct {
	// N is the number of coexisting senders (>= 1).
	N int
	// Seed drives the simulation loop's randomness.
	Seed int64
	// Alpha is every member's cross-traffic priority (default 1:
	// bit-neutral, the fair-sharing point).
	Alpha float64
	// PerSenderRate is each sender's fair share of the bottleneck; the
	// link rate is N times it (default 6000 bit/s, half a packet per
	// second each, so the default fleet matches the two-flow
	// coexistence experiments at N = 2).
	PerSenderRate units.BitRate
	// FairQueue replaces the tail-drop FIFO bottleneck with the
	// deficit-round-robin FairQueue, the §3.5 non-FIFO scheduling.
	FairQueue bool
	// Workers is ignored: members plan and update on the loop's
	// goroutine. v2a-1 deletes it.
	Workers int
	// Table, when non-nil, is an offline-compiled policy (a
	// policy.Server over a compiled table) probed before any live
	// planning. It is shared read-only across all members, as rung 0 of
	// each member's synchronous planner.Guard; a miss is planned as every
	// decision is without a table, through the shared PolicyCache, and
	// is not recorded anywhere.
	Table planner.CompiledPolicy
	// NoSharedCache disables the fleet-wide policy cache (for the
	// ablation benchmark; every member then plans from scratch).
	NoSharedCache bool
	// CacheStripes sets how many independent stripes the shared policy
	// cache is split into (0 = 1: one fleet-wide cache, the historical
	// behavior). A member uses stripe flow mod CacheStripes. The stripe
	// count — not the shard count — determines which members share
	// entries, so results are identical whether the fleet runs on one
	// loop or on any shard count dividing it; the sharded runtime
	// defaults this to planner.DefaultCacheStripes.
	CacheStripes int
	// Canonical switches the per-instant wake scheduler from arrival
	// order (the historical single-loop behavior, the default) to
	// canonical flow order, and routes timer wakes through the same
	// batched drain as acknowledgment wakes. Under Canonical the
	// instant-by-instant trajectory is a pure function of WHICH members
	// woke — never of the event interleaving that woke them — which is
	// the property the sharded runtime needs to reproduce a single-loop
	// run bit for bit (internal/shard forces it on). The two orderings
	// produce different trajectories from the same seed, and not
	// equally fair ones on the FIFO bottleneck — flow order is a strict
	// priority among same-instant wakes (see package shard); every
	// cross-shard identity test compares canonical to canonical.
	Canonical bool
	// LeanStats drops the per-packet Series (AckedSeq/UtilCum/SupportN)
	// from every member, keeping only O(1) streaming aggregates —
	// count, mean, M2 variance, P² percentile, and a late-window ack
	// count for rate — so an N=4096 run stays flat in heap.
	// LeanRateFrom sets where the late window begins (the fairness
	// sweep uses the second half of the run).
	LeanStats    bool
	LeanRateFrom time.Duration
	// BeliefCfg overrides non-zero fields of the fleet belief defaults.
	// Pool is fleet-owned: every member runs on the fleet's shared pool
	// regardless of what is set here.
	BeliefCfg belief.Config
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 2
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.PerSenderRate <= 0 {
		c.PerSenderRate = 6000
	}
	if c.CacheStripes <= 0 {
		c.CacheStripes = 1
	}
	return c
}

// preciseMaxN is the largest fleet that plans and infers at the full
// two-flow coexistence resolution. Politeness at the α = 1 knife edge —
// the paper's "never causes a buffer overflow" — demands a model fine
// enough to see one packet's displacement, and experiments show it
// needs BOTH the fine belief (1 s toggle grid, unknown initial
// fullness, deep weight floor) and the fine planner (200 ms candidate
// grid, 40 s horizon); each alone already tolerates drops. That
// resolution costs too much to pay hundreds of times over, so larger
// fleets deliberately trade the no-drop guarantee for boundedness: a
// coarse, chunked, amortized model whose shortfalls the fairness sweep
// measures instead of hides.
const preciseMaxN = 4

// Prior is the belief each fleet member starts from: link and buffer
// known (the open question is competitor inference, not link inference),
// competitor intensity and gate state unknown. The CrossFrac grid
// brackets the fair-share point (N-1)/N. Fleets up to preciseMaxN model
// at the full coexistence resolution; beyond it the model itself is
// coarsened — cross traffic chunked so one modeled emission covers ~N/4
// real competitor packets, the gate-toggle grid widened to 5 s, and the
// buffer known to start empty — because every bit of per-hypothesis
// resolution is paid for N times over. The coarseness is model mismatch
// of exactly the kind the soft observation likelihood exists to absorb.
func Prior(linkRate units.BitRate, bufferCapBits int64, n int) model.Prior {
	if n < 2 {
		n = 2
	}
	// The grid must bracket the fair-share point (N-1)/N = 1 - 1/N, so
	// both bounds scale as 1 - c/N: capping hi at a constant would
	// invert the range once 1-1.6/N exceeds it (N ≥ 81), collapsing
	// the 4-point competitor grid to a single value below fair share.
	// 1-0.4/N is always strictly below 1, so no cap is needed.
	lo := 1 - 1.6/float64(n)
	if lo < 0.1 {
		lo = 0.1
	}
	hi := 1 - 0.4/float64(n)
	pr := model.Prior{
		LinkRate:       model.PriorRange{Lo: float64(linkRate), Hi: float64(linkRate), N: 1},
		CrossFrac:      model.PriorRange{Lo: lo, Hi: hi, N: 4},
		LossProb:       model.PriorRange{Lo: 0, Hi: 0, N: 1},
		BufferCapBits:  model.PriorRange{Lo: float64(bufferCapBits), Hi: float64(bufferCapBits), N: 1},
		FullnessSteps:  2,
		MeanSwitch:     30 * time.Second,
		PingerMaybeOff: true,
		SwitchTick:     time.Second,
	}
	if n > preciseMaxN {
		pr.FullnessSteps = 1
		pr.SwitchTick = 5 * time.Second
	}
	if n > 8 {
		pr.CrossPktBits = packet.DefaultSizeBits * int64(n/4)
	}
	return pr
}

// beliefDefaults is the fleet member belief configuration: soft
// observation matching (the competitors are not the PINGER the model
// assumes) in Relax mode (a surprise must not abort a 1000-sender run).
// Small fleets keep the coexistence experiments' deep weight floor and
// wide cap; larger fleets tighten both because they multiply every cost
// by N.
func beliefDefaults(cfg belief.Config, n int) belief.Config {
	if cfg.SoftSigma <= 0 {
		cfg.SoftSigma = 300 * time.Millisecond
	}
	if cfg.MinWeight <= 0 {
		if n <= preciseMaxN {
			cfg.MinWeight = 1e-9
		} else {
			cfg.MinWeight = 1e-5
		}
	}
	if cfg.MaxHyps <= 0 {
		if n <= preciseMaxN {
			cfg.MaxHyps = 1 << 12
		} else {
			cfg.MaxHyps = 256
		}
	}
	cfg.Relax = true
	return cfg
}

// planDefaults is the fleet member planning configuration, scaled to the
// fair-share rate: candidates up to two fair-share packet intervals out
// on a coarse grid, and a horizon just past the shared buffer's drain
// time. The horizon must clear the drain (a constant 8 s under the
// default capacity scaling, 4 packets per sender at half a packet per
// second each) or a queued packet's displacement cost falls outside
// every rollout and the fleet overfills the buffer; it should not be
// much longer, because a saturated hypothesis has no idle instant at
// which a candidate could reconverge with its baseline, so the baseline
// runs to the full horizon, and a fleet pays that N times over. (The
// candidates themselves mostly do not: one admitted behind a backlog
// that stays busy is closed from the baseline's running value, see
// planner.Decide — planning cost is no longer
// candidates × horizon, but it is still linear in the horizon.)
func planDefaults(perSender units.BitRate, u utility.Config, n int) planner.Config {
	fairInterval := units.TransmitTime(packet.DefaultSizeBits, perSender)
	cfg := planner.Config{MaxDelay: 2 * fairInterval, Util: u}
	if n <= preciseMaxN {
		cfg.Grid, cfg.Horizon, cfg.MaxHyps = fairInterval/10, 40*time.Second, 256
	} else {
		cfg.Grid, cfg.Horizon, cfg.MaxHyps = fairInterval/4, 12*time.Second, 64
	}
	return cfg
}

// DefaultBeliefConfig returns the belief configuration a fleet of n
// gives its members, for experiments that wire a member by hand (the
// ISENDER-vs-TCP coexistence run) and must stay comparable with the
// fleet-built ones.
func DefaultBeliefConfig(n int) belief.Config {
	return beliefDefaults(belief.Config{}, n)
}

// Fleet is N coexisting ISENDERs wired to one shared bottleneck on one
// discrete-event loop. Build with New, drive with Run.
//
// The embedded host contributes Cfg (the resolved configuration), Loop
// (the shared discrete-event loop) and Pool (the fleet-wide rollout
// pool); the embedded Roster the bottleneck (Buffer or FQ, Link, Recv),
// Caches (the fleet-wide striped policy cache), the slot-indexed Members
// and the membership and per-flow accounting both runtimes share.
type Fleet struct {
	host
	Roster
	started bool // Start has run
}

// New builds a fleet. Nothing runs until Run (or the loop is driven
// manually).
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{}
	loop := sim.New(cfg.Seed)
	f.setup(cfg, loop, func(packet.FlowID) *host { return &f.host }, true)
	f.init(cfg, loop, f.Caches, f.q)
	for i := 0; i < cfg.N; i++ {
		f.attach(packet.FlowID(i), nil)
	}
	return f
}

// Start schedules every member's first wakeup at its StartOffset, once:
// a later call does nothing. Run calls it; call it directly only when
// driving the loop manually.
func (f *Fleet) Start() {
	if f.started {
		return
	}
	f.started = true
	for _, m := range f.Members {
		if m != nil {
			m.Start(StartOffset(f.Cfg, m.Flow, m.Gen))
		}
	}
}

// Run starts the members if they have not started and drives the loop
// to the absolute virtual time t, so Run(10 s) then Run(23 s) is one
// run to 23 s.
func (f *Fleet) Run(t time.Duration) {
	f.Start()
	f.Loop.Run(t)
}

// StartOffset places the first wake of the flow's member of generation
// gen within the stagger window, so decision epochs de-synchronize. An
// initial member (gen 0 of a flow below N) sits on the lattice
// Stagger·flow/N; any other start — a mid-run admission or a restart —
// at a deterministic hash of (flow, generation), so it does not land on
// one instant with the incumbents. Both runtimes and
// lifecycle.Controller place every start here.
func StartOffset(cfg Config, flow packet.FlowID, gen uint32) time.Duration {
	cfg = cfg.withDefaults()
	stagger := cfg.Stagger()
	if gen == 0 && int(flow) < cfg.N {
		return time.Duration(int64(stagger) * int64(flow) / int64(cfg.N))
	}
	if stagger <= 0 {
		return 0
	}
	h := uint64(flow)*0x9e3779b97f4a7c15 + uint64(gen)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	h ^= h >> 29
	return time.Duration(h % uint64(stagger))
}

// MemoStats reports the counters of the rollout memo under the fleet's
// pool: how many of the hypotheses live planning keyed were served a
// stored gain vector, shared a rollout within their call, or collided.
func (f *Fleet) MemoStats() planner.MemoStats { return planner.PoolMemoStats(f.Pool) }

// CompiledStats reports, summed over members, how many decisions the
// compiled policy table served (Guard rung 0) versus how many were
// planned live; without a table every live decision counts in live.
func (f *Fleet) CompiledStats() (compiled, live int64) {
	for _, m := range f.Members {
		if m != nil {
			compiled += m.Sender.Guard.CompiledHits
			live += m.Sender.Guard.Live
		}
	}
	return compiled, live
}

// Stagger is the window member start times spread over so decision
// epochs de-synchronize (StartOffset): one fair-share packet interval,
// the default packet at PerSenderRate.
func (c Config) Stagger() time.Duration {
	return units.TransmitTime(packet.DefaultSizeBits, c.withDefaults().PerSenderRate)
}

// Resolved returns the configuration with all defaults applied — the
// exact Config a fleet built from c records in Cfg. The sharded
// runtime uses it to size the coupling window from the resolved link
// rate before any partition is built.
func (c Config) Resolved() Config { return c.withDefaults() }

// LinkRate is the bottleneck speed of a resolved configuration: N times
// PerSenderRate.
func (c Config) LinkRate() units.BitRate {
	return units.BitRate(float64(c.PerSenderRate) * float64(c.N))
}

// BufferCapBits is the shared buffer capacity of a resolved
// configuration: 4 packets of headroom per sender (96,000 bits at N = 2,
// matching the two-flow coexistence experiments).
func (c Config) BufferCapBits() int64 { return 4 * packet.DefaultSizeBits * int64(c.N) }

// ResolvedPrior returns the prior the fleet's members would start from
// under this configuration, with all defaults applied — the identity
// the compiled-policy table format records (via policy.HashPrior) so a
// table is never served against a model it was not compiled for.
func (c Config) ResolvedPrior() model.Prior {
	c = c.withDefaults()
	return Prior(c.LinkRate(), c.BufferCapBits(), c.N)
}

// Member adapts one core.Sender to the shared loop: it injects the
// sender's packets as DES packets, accumulates acknowledgments, and
// keeps the sender's wake timer on the loop. It is the generalization
// of the two-flow coexistence experiments' sender adapter; standalone
// (no fleet) it wakes immediately on every acknowledgment, while under
// a fleet the scheduler batches same-instant acknowledgments into one
// wake.
type Member struct {
	// Flow is the member's flow, also its index in Fleet.Members.
	Flow packet.FlowID
	// Gen is the member's generation on its flow: 0 for the flow's
	// first occupant, incremented each time the flow is recycled by a
	// restart or a fresh admission. (Flow, Gen) is a member identity
	// that survives flow-ID reuse.
	Gen uint32
	// Sender is the ISENDER endpoint.
	Sender *core.Sender
	// AckedSeq is the flow's acknowledged-sequence series.
	AckedSeq stats.Series
	// Delay aggregates one-way packet delay in seconds per
	// acknowledgment — O(1) space even across a long run.
	Delay stats.Summary
	// DelayP99 streams the 99th-percentile one-way delay (P² estimator,
	// O(1) space), so a lean fleet still reports a tail percentile
	// without retaining samples.
	DelayP99 *stats.P2
	// LateAcks counts acknowledgments arriving after the lean-stats
	// rate window start (Config.LeanRateFrom), the same (from, end]
	// window stats.Series.Window cuts from AckedSeq; a lean fairness
	// sweep computes steady-state rate from this instead.
	LateAcks int64
	// Utility accumulates Σ bits · exp(-delay/κ) over acknowledged
	// packets: the realized delivery utility of the flow under the
	// member's own discount timescale.
	Utility float64
	// Injected counts packets this member generation put on the wire.
	Injected int64
	// UtilCum is the cumulative Utility sampled at each acknowledgment,
	// so lifecycle experiments can window utility (ramp-up, post-restart
	// ratios) the way AckedSeq windows throughput.
	UtilCum stats.Series
	// SupportN samples the belief's support size at each wake: the
	// posterior-convergence trace. A warm-restored member starts at its
	// predecessor's converged size; a cold one starts at the full prior
	// and pays updates until the posterior collapses.
	SupportN stats.Series
	// AdmittedAt is the virtual time this generation joined the fleet.
	AdmittedAt time.Duration
	// GenDrops and GenDelivered are the generation's fenced bottleneck
	// drops and deliveries, frozen at retirement (zero while live — use
	// Roster.FlowDrops / Roster.Delivered for a live member).
	GenDrops, GenDelivered int

	loop    *sim.Loop
	out     elements.Node
	timer   *sim.Timer
	acks    []packet.Ack
	notify  func(*Member)
	queued  bool
	retired bool
	// lean/leanFrom mirror Config.LeanStats/LeanRateFrom: skip the
	// per-packet Series, count late acks instead.
	lean     bool
	leanFrom time.Duration
	// canonical mirrors Config.Canonical: timer and start wakes route
	// through the batched drain (so same-instant wakes fire in flow
	// order) instead of firing inline at their own event.
	canonical bool
}

// Retired reports whether the member has been torn down; a retired
// member never decides or sends again.
func (m *Member) Retired() bool { return m.retired }

// SetDegraded pins (or releases) the member's decision path to its
// Guard's degradation ladder — compiled table when wired, else last
// safe → sleep — without live planning; see planner.Guard.Degraded.
// The last safe interval is the one the member's Guard has remembered
// since it was built or restored.
func (m *Member) SetDegraded(on bool) { m.Sender.Guard.Degraded = on }

// DegradedServed reports how many of the member's decisions were
// served while its Guard was degraded (zero when never degraded).
func (m *Member) DegradedServed() int64 { return m.Sender.Guard.DegradedServed }

// NewMember returns a standalone member (immediate wake per
// acknowledgment) sending into out. Fleet members are built by New,
// which routes acknowledgments through the batching scheduler instead.
func NewMember(loop *sim.Loop, s *core.Sender, flow packet.FlowID, out elements.Node) *Member {
	m := &Member{Flow: flow, Sender: s, loop: loop, out: out}
	// Series are named by flow number, not FlowID.String(): fleet flows
	// are dense indexes, and the well-known names ("cross", "other")
	// would mislabel foreground members 1 and 2.
	m.AckedSeq.Name = fmt.Sprintf("flow%d acked", uint32(flow))
	m.DelayP99 = stats.NewP2(0.99)
	m.timer = sim.NewTimer(loop, m.epochWake)
	return m
}

// requestWake routes an acknowledgment wake through the fleet
// scheduler when one is attached (same-instant wakes are batched into
// one drain), and wakes immediately when standalone.
func (m *Member) requestWake() {
	if m.notify != nil {
		m.notify(m)
		return
	}
	m.wake()
}

// epochWake fires a timer or start-offset wake. Under canonical
// scheduling it routes through the batched drain like an
// acknowledgment wake, so every same-instant wake — whatever its
// trigger — drains in flow order; otherwise it fires inline at its own
// event, the historical single-loop behavior.
func (m *Member) epochWake() {
	if m.canonical {
		m.requestWake()
		return
	}
	m.wake()
}

// Start schedules the member's first wakeup after the given offset.
func (m *Member) Start(offset time.Duration) {
	m.loop.After(offset, m.epochWake)
}

// OnAck records an acknowledgment and requests a wake — immediate when
// standalone, batched per instant under a fleet scheduler.
func (m *Member) OnAck(a packet.Ack) {
	now := m.loop.Now()
	delay := a.Delay()
	m.Delay.Add(delay.Seconds())
	m.DelayP99.Add(delay.Seconds())
	m.Utility += float64(packet.DefaultSizeBits) * m.Sender.Plan.Util.Discount(delay)
	if m.lean {
		if now > m.leanFrom {
			m.LateAcks++
		}
	} else {
		m.AckedSeq.Add(now, float64(a.Seq))
		m.UtilCum.Add(now, m.Utility)
	}
	m.acks = append(m.acks, a)
	m.requestWake()
}

func (m *Member) wake() {
	if m.retired {
		// A wake already scheduled when the member was torn down (a
		// Start offset, a queued drain, the disarmed timer's last
		// event) lands here harmlessly instead of re-arming anything.
		return
	}
	now := m.loop.Now()
	acks := m.acks
	m.acks = m.acks[:0]
	act := m.Sender.Wake(now, acks)
	if !m.lean {
		m.SupportN.Add(now, float64(m.Sender.Belief.View().Len()))
	}
	for _, snd := range act.Sends {
		m.Injected++
		m.out.Receive(packet.Packet{
			Flow:      m.Flow,
			Seq:       snd.Seq,
			SizeBytes: packet.DefaultSizeBytes,
			SentAt:    now,
		})
	}
	if act.WakeAt <= now {
		act.WakeAt = now + 10*time.Millisecond
	}
	m.timer.ArmAt(act.WakeAt)
}
