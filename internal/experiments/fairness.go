package experiments

import (
	"fmt"
	"strings"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/shard"
	"modelcc/internal/stats"
	"modelcc/internal/units"
)

// FairnessConfig describes an N-sender fairness sweep: one fleet run per
// N, all sharing the sweep's seed and virtual duration.
type FairnessConfig struct {
	// Ns are the fleet sizes to sweep (default 2, 4, 16, 64, 256).
	Ns []int
	// Duration is each run's virtual length (default 120 s).
	Duration time.Duration
	// Seed drives every run.
	Seed int64
	// Alpha is every member's cross-traffic priority (default 1).
	Alpha float64
	// PerSenderRate is each sender's fair share (default 6000 bit/s).
	PerSenderRate units.BitRate
	// FairQueue selects the DRR bottleneck instead of tail-drop FIFO.
	FairQueue bool
	// NoSharedCache disables the fleet-wide policy cache.
	NoSharedCache bool
	// Shards runs each fleet on the sharded runtime (internal/shard):
	// K parallel per-shard DES loops coupled through the bottleneck by
	// windowed lookahead, bit-identical for every shard count >= 1.
	// 0 keeps the default single-loop fleet, whose arrival-order
	// scheduling takes a different (equally deterministic) trajectory.
	Shards int
	// LeanStats drops per-packet series retention (streaming moments
	// and a P² tail estimator only), keeping heap flat at N=4096.
	// Second-half rates come from the late-ack counter instead of the
	// acked series; per-flow MaxDelay/P99Delay stay available.
	LeanStats bool
}

func (c FairnessConfig) withDefaults() FairnessConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{2, 4, 16, 64, 256}
	}
	if c.Duration == 0 {
		c.Duration = 120 * time.Second
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	return c
}

// FlowStat is one flow's slice of a fairness run.
type FlowStat struct {
	// Flow is the member index.
	Flow int
	// Rate is the delivered packet rate over the second half of the
	// run, in packets/s.
	Rate float64
	// Delivered counts packets that reached the receiver over the whole
	// run.
	Delivered int
	// MeanDelay and MaxDelay summarize the flow's one-way packet delay
	// in seconds.
	MeanDelay, MaxDelay float64
	// P99Delay is the flow's streaming 99th-percentile one-way delay in
	// seconds (P² estimator — O(1) space, available in lean runs too).
	P99Delay float64
	// Drops counts the flow's packets discarded at the bottleneck.
	Drops int
	// Utility is the flow's realized delivery utility,
	// Σ bits·exp(-delay/κ) over acknowledged packets.
	Utility float64
}

// FairnessPoint is one fleet size's result.
type FairnessPoint struct {
	// N is the fleet size.
	N int
	// Jain is Jain's fairness index over the per-flow second-half
	// rates: 1 = perfectly even split.
	Jain float64
	// AggRate is the summed second-half delivery rate in packets/s;
	// LinkPkts is what the bottleneck could carry, for reference.
	AggRate, LinkPkts float64
	// MinRate and MaxRate bound the per-flow rates.
	MinRate, MaxRate float64
	// MeanDelay is the delivered-packet delay mean across all flows,
	// in seconds.
	MeanDelay float64
	// AggUtility sums the per-flow realized utilities.
	AggUtility float64
	// Drops counts bottleneck drops across all flows.
	Drops int
	// CacheHits/CacheMisses are the shared policy cache's counters —
	// the fleet's amortization at work.
	CacheHits, CacheMisses int
	// PerFlow holds the per-flow breakdown, indexed by member.
	PerFlow []FlowStat
}

// FairnessResult is the whole sweep.
type FairnessResult struct {
	// Cfg echoes the resolved configuration.
	Cfg FairnessConfig
	// Points holds one entry per fleet size, in Ns order.
	Points []FairnessPoint
	// Memo holds each point's rollout-memo counters: of the hypotheses
	// the policy cache's misses planned over, how many were derived from
	// the log of a burst's first decision, how many were rolled, and of
	// their candidate lanes how many were closed — lagged twins, or dropped
	// where they forked — instead of simulated. A cost diagnostic, not a
	// result — there is one memo per shard partition, so unlike Points it
	// varies with the shard count.
	Memo []planner.MemoStats
}

// fleetRuntime is the read surface the fairness and churn reductions
// need. The single-loop fleet and the sharded runtime both satisfy it,
// so each reduction is written once and serves either engine.
type fleetRuntime interface {
	MemberSlots() []*fleet.Member
	Live() int
	Delivered(packet.FlowID) int
	DeliveredTotal(packet.FlowID) int
	FlowDrops(packet.FlowID) int
	Drops() int
	CacheStats() (hits, misses int)
	MemoStats() planner.MemoStats
}

// FairnessSweep runs one fleet per N and reports fairness, per-flow
// throughput/delay, and aggregate utility at each size. Every run is
// deterministic given (Seed, Duration, N, Alpha, PerSenderRate,
// FairQueue), and with Shards > 0 the shard count changes only
// wall-clock time (TestFairnessSweepShardDeterminism asserts it).
func FairnessSweep(cfg FairnessConfig) FairnessResult {
	cfg = cfg.withDefaults()
	res := FairnessResult{Cfg: cfg}
	for _, n := range cfg.Ns {
		fc := fleet.Config{
			N:             n,
			Seed:          cfg.Seed,
			Alpha:         cfg.Alpha,
			PerSenderRate: cfg.PerSenderRate,
			FairQueue:     cfg.FairQueue,
			NoSharedCache: cfg.NoSharedCache,
			LeanStats:     cfg.LeanStats,
		}
		if cfg.LeanStats {
			// The late-ack counter stands in for the acked series: count
			// from the second half's start, which is all the rate
			// reduction reads.
			fc.LeanRateFrom = cfg.Duration / 2
		}
		var rt fleetRuntime
		if cfg.Shards > 0 {
			sf := shard.New(shard.Config{Fleet: fc, Shards: cfg.Shards})
			sf.Run(cfg.Duration)
			rt = sf
		} else {
			fl := fleet.New(fc)
			fl.Run(cfg.Duration)
			rt = fl
		}
		res.Points = append(res.Points, fairnessPoint(rt, fc.Resolved(), cfg.Duration, cfg.LeanStats))
		res.Memo = append(res.Memo, rt.MemoStats())
	}
	return res
}

// fairnessPoint reduces one finished run to its sweep entry. Per-flow
// data is read in member-slot order only, so the reduction is
// deterministic for either engine.
func fairnessPoint(rt fleetRuntime, rc fleet.Config, duration time.Duration, lean bool) FairnessPoint {
	half := duration / 2
	halfSecs := (duration - half).Seconds()
	p := FairnessPoint{
		LinkPkts: float64(rc.LinkRate()) / float64(packet.DefaultSizeBits),
		Drops:    rt.Drops(),
	}
	p.CacheHits, p.CacheMisses = rt.CacheStats()

	var rates []float64
	var delays stats.Summary
	for i, m := range rt.MemberSlots() {
		if m == nil {
			continue
		}
		// Delivered rate as acknowledgments per second over the second
		// half: well-defined even for flows with a single sample, which
		// a slope fit is not. Lean runs count late acks instead of
		// windowing a retained series.
		var rate float64
		if lean {
			rate = float64(m.LateAcks) / halfSecs
		} else {
			w := m.AckedSeq.Window(half, duration)
			rate = float64(w.Len()) / halfSecs
		}
		rates = append(rates, rate)

		fs := FlowStat{
			Flow:      i,
			Rate:      rate,
			Delivered: rt.Delivered(m.Flow),
			MeanDelay: m.Delay.Mean(),
			MaxDelay:  m.Delay.MaxV,
			P99Delay:  m.DelayP99.Value(),
			Utility:   m.Utility,
		}
		// Generation-fenced accessor: identical to the raw per-flow maps
		// for a churn-free sweep, correct when flows have been recycled.
		fs.Drops = rt.FlowDrops(m.Flow)
		p.PerFlow = append(p.PerFlow, fs)
		p.AggRate += rate
		p.AggUtility += m.Utility
		delays.Merge(m.Delay)
		if p.N == 0 || rate < p.MinRate {
			p.MinRate = rate
		}
		if rate > p.MaxRate {
			p.MaxRate = rate
		}
		p.N++
	}
	p.Jain = stats.JainIndex(rates)
	p.MeanDelay = delays.Mean()
	return p
}

// Render prints the sweep as the table the fairness analysis reads:
// one line per fleet size.
func (r FairnessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fairness sweep: %v virtual per run, alpha=%g, seed=%d",
		r.Cfg.Duration, r.Cfg.Alpha, r.Cfg.Seed)
	if r.Cfg.FairQueue {
		b.WriteString(", DRR fair queue")
	}
	if r.Cfg.Shards > 0 {
		fmt.Fprintf(&b, ", %d shards", r.Cfg.Shards)
	}
	if r.Cfg.LeanStats {
		b.WriteString(", lean stats")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %10s %10s %10s %8s %12s\n",
		"N", "jain", "agg pkt/s", "link pkt/s", "min pkt/s", "max pkt/s", "delay(s)", "drops", "cache h/m")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6d %8.4f %10.3f %10.3f %10.4f %10.4f %10.3f %8d %7d/%d\n",
			p.N, p.Jain, p.AggRate, p.LinkPkts, p.MinRate, p.MaxRate, p.MeanDelay, p.Drops, p.CacheHits, p.CacheMisses)
	}
	for i, m := range r.Memo {
		p := r.Points[i]
		fmt.Fprintf(&b, "N=%-4d rollout memo: %d hypotheses keyed, %d hits, %d shared in-call, %d derived from a first decision's log, %d rolled (%d of them a burst's first decision for a later one); %d verify mismatches, %d overwrites; %d candidate lanes, %d closed (lagged twins, or dropped where they fork), %d deferred then simulated\n",
			p.N, m.Lookups, m.Hits, m.Shared, m.Derived, m.Rolled(), m.Stripped, m.VerifyMismatches, m.Overwrites, m.Lanes, m.Closed, m.Materialized)
	}
	return b.String()
}
