package experiments

import (
	"fmt"
	"strings"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
	"modelcc/internal/shard"
	"modelcc/internal/stats"
)

// ShardChurnConfig describes one sharded churn run: a fleet under the
// barrier-aligned lifecycle on K parallel partitions.
type ShardChurnConfig struct {
	// N is the fleet's slot count (and MaxLive default).
	N int
	// Shards requests the partition count (resolved by
	// shard.ResolveShards; 0 means one per CPU).
	Shards int
	// Duration is the virtual run length (default 120 s).
	Duration time.Duration
	// Seed drives both the simulation and the churn schedule.
	Seed int64
	// Epoch, DepartProb, CrashProb, ArriveProb are the churn schedule
	// knobs, defaulted like ChurnConfig's: the three probabilities take
	// 0.04 / 0.06 / 0.5 only when all three are zero, so one of them
	// can be set to zero beside a non-zero other.
	Epoch                             time.Duration
	DepartProb, CrashProb, ArriveProb float64
	// MinLive floors the live population (default N/4).
	MinLive int
	// FairQueue selects the DRR bottleneck.
	FairQueue bool
	// Workers is the TOTAL rollout width, split across shards.
	Workers int
	// LeanStats drops per-packet series retention.
	LeanStats bool
	// NoChurn disables the churn lifecycle (pure shard-fault runs).
	NoChurn bool
	// Checkpoints arms barrier-time checkpointing — the warm rung of
	// the restart ladder for both churn restarts and shard failovers.
	// CheckpointEvery and CheckpointDir mirror shard.CheckpointConfig;
	// a non-empty dir implies Checkpoints.
	Checkpoints     bool
	CheckpointEvery time.Duration
	CheckpointDir   string
	// ShardKillProb and ShardStallProb arm the deterministic
	// shard-fault schedule (shard.FaultConfig) when positive, with
	// FaultEpoch and MaxStall defaulted by the shard runtime.
	ShardKillProb, ShardStallProb float64
	FaultEpoch, MaxStall          time.Duration
	// WindowBudget arms the wall-clock watchdog. Nondeterministic —
	// leave zero when the replay hash matters.
	WindowBudget time.Duration
}

func (c ShardChurnConfig) withDefaults() ShardChurnConfig {
	if c.N == 0 {
		c.N = 16
	}
	if c.Duration == 0 {
		c.Duration = 120 * time.Second
	}
	if c.Epoch == 0 {
		c.Epoch = 10 * time.Second
	}
	if c.DepartProb == 0 && c.CrashProb == 0 && c.ArriveProb == 0 {
		c.DepartProb, c.CrashProb, c.ArriveProb = 0.04, 0.06, 0.5
	}
	if c.MinLive == 0 {
		c.MinLive = c.N / 4
	}
	return c
}

// ShardChurnResult is one sharded churn run's reduction.
type ShardChurnResult struct {
	// Cfg echoes the resolved configuration; Shards is the resolved
	// partition count actually used.
	Cfg ShardChurnConfig
	// Stats aggregates lifecycle outcomes (crashes, departures,
	// arrivals, failures, cold restarts).
	Stats lifecycle.Stats
	// Events is the length of the lifecycle event log.
	Events int
	// Live is the final live-member count; Slots the flow-space size.
	Live, Slots int
	// Delivered totals packets received across every flow and
	// generation; Drops counts bottleneck discards.
	Delivered, Drops int
	// OrphanAcks counts acknowledgments that arrived after their
	// sender's generation retired.
	OrphanAcks int64
	// Jain is Jain's index over the final-quarter delivery rates of
	// members live through that whole window — ChurnResult.Jain's
	// reduction. Zero under LeanStats, which keeps no per-packet series.
	Jain float64
	// ReplayHash digests delivery totals, drops and the event log; it
	// is bit-identical for every shard count at fixed (N, Seed, knobs) —
	// the determinism invariant CI holds the sharded runtime to.
	ReplayHash uint64
	// Failover aggregates shard-fault outcomes (zero without faults).
	Failover shard.FailoverStats
	// DegradedServed totals decisions served through the Guard
	// degradation ladder while stalled or watchdogged.
	DegradedServed int64
	// FailoverRecovered counts fault-restored generations that absorbed
	// at least one delivery; MTTR is their mean virtual time from kill
	// barrier to that first delivery.
	FailoverRecovered int
	MTTR              time.Duration
	// PostFailoverUtility is the mean final utility across fault-
	// restored generations (NaN-free: zero when none were restored).
	PostFailoverUtility float64
}

// RunShardChurn drives one sharded fleet under the barrier-aligned
// churn lifecycle and reduces it.
func RunShardChurn(cfg ShardChurnConfig) ShardChurnResult {
	cfg = cfg.withDefaults()
	fc := fleet.Config{
		N:         cfg.N,
		Seed:      cfg.Seed,
		FairQueue: cfg.FairQueue,
		Workers:   cfg.Workers,
		LeanStats: cfg.LeanStats,
		BeliefCfg: belief.Config{Recover: true},
	}
	if cfg.LeanStats {
		fc.LeanRateFrom = cfg.Duration / 2
	}
	sf := shard.New(shard.Config{Fleet: fc, Shards: cfg.Shards})
	if cfg.Checkpoints || cfg.CheckpointDir != "" {
		sf.EnableCheckpoints(shard.CheckpointConfig{Every: cfg.CheckpointEvery, Dir: cfg.CheckpointDir})
	}
	if cfg.ShardKillProb > 0 || cfg.ShardStallProb > 0 {
		sf.EnableFaults(shard.FaultConfig{
			Epoch:     cfg.FaultEpoch,
			KillProb:  cfg.ShardKillProb,
			StallProb: cfg.ShardStallProb,
			MaxStall:  cfg.MaxStall,
		}, chaos.Config{Seed: cfg.Seed})
	}
	if cfg.WindowBudget > 0 {
		sf.EnableWatchdog(shard.WatchdogConfig{WindowBudget: cfg.WindowBudget})
	}
	if !cfg.NoChurn {
		sf.EnableChurn(lifecycle.ChurnConfig{
			Epoch:      cfg.Epoch,
			DepartProb: cfg.DepartProb,
			CrashProb:  cfg.CrashProb,
			ArriveProb: cfg.ArriveProb,
			MinLive:    cfg.MinLive,
			MaxLive:    cfg.N,
		}, lifecycle.SupervisorConfig{}, chaos.Config{Seed: cfg.Seed})
	}
	sf.Run(cfg.Duration)

	cfg.Shards = sf.K
	res := ShardChurnResult{
		Cfg:        cfg,
		Stats:      sf.Stats,
		Events:     len(sf.Events),
		Live:       sf.Live(),
		Slots:      sf.Slots(),
		Drops:      sf.Drops(),
		OrphanAcks: sf.OrphanAcks,
		ReplayHash: sf.ReplayHash(),
	}
	for i := 0; i < sf.Slots(); i++ {
		res.Delivered += sf.DeliveredTotal(packet.FlowID(i))
	}
	res.Failover = sf.Failover
	res.DegradedServed = sf.DegradedServed()
	var mttrSum time.Duration
	var utilSum float64
	restored := 0
	for _, r := range sf.Records {
		if r.Cause != lifecycle.CauseFailover {
			continue
		}
		restored++
		utilSum += r.M.Utility
		if r.FirstAckAt > r.M.AdmittedAt {
			res.FailoverRecovered++
			mttrSum += r.FirstAckAt - r.M.AdmittedAt
		}
	}
	if res.FailoverRecovered > 0 {
		res.MTTR = mttrSum / time.Duration(res.FailoverRecovered)
	}
	if restored > 0 {
		res.PostFailoverUtility = utilSum / float64(restored)
	}
	if !cfg.LeanStats {
		window := cfg.Duration / 4
		from := cfg.Duration - window
		var rates []float64
		for _, m := range sf.MemberSlots() {
			if m == nil || m.AdmittedAt > from {
				continue
			}
			w := m.AckedSeq.Window(from, cfg.Duration)
			rates = append(rates, float64(len(w.Pts))/window.Seconds())
		}
		res.Jain = stats.JainIndex(rates)
	}
	return res
}

// Render prints one line per run for the CLI.
func RenderShardChurn(points []ShardChurnResult) string {
	var b strings.Builder
	b.WriteString("Sharded churn (barrier-aligned lifecycle; hash is shard-count invariant)\n")
	fmt.Fprintf(&b, "%-6s %7s %10s %7s %7s %7s %7s %8s %7s %9s %7s %16s\n",
		"N", "shards", "delivered", "drops", "crash", "depart", "arrive", "restart", "live", "orphans", "jain", "replay hash")
	for _, p := range points {
		restarts := p.Stats.ColdRestarts + p.Stats.HotRestarts + p.Stats.WarmRestarts
		fmt.Fprintf(&b, "%-6d %7d %10d %7d %7d %7d %7d %8d %7d %9d %7.4f %016x\n",
			p.Cfg.N, p.Cfg.Shards, p.Delivered, p.Drops,
			p.Stats.Crashes, p.Stats.Departures, p.Stats.Arrivals, restarts,
			p.Live, p.OrphanAcks, p.Jain, p.ReplayHash)
	}
	for _, p := range points {
		if p.Failover.ShardKills == 0 && p.Failover.Stalls == 0 && p.Failover.WatchdogTrips == 0 {
			continue
		}
		fo := p.Failover
		fmt.Fprintf(&b, "shards=%d faults: kills=%d failedOver=%d (warm=%d hot=%d cold=%d) fencedAcks=%d stalls=%d wdTrips=%d degraded=%d recovered=%d mttr=%v postUtil=%.3f\n",
			p.Cfg.Shards, fo.ShardKills, fo.FlowsFailedOver,
			fo.WarmFailovers, fo.HotFailovers, fo.ColdFailovers,
			fo.FencedAcks, fo.Stalls, fo.WatchdogTrips,
			p.DegradedServed, p.FailoverRecovered, p.MTTR, p.PostFailoverUtility)
	}
	return b.String()
}
