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

// ChurnConfig describes one lifecycle run on either runtime: a fleet
// under a deterministic arrival/departure/crash schedule (and, on the
// barrier runtime, a shard-fault schedule) with casualties restarted
// through the hot/warm/cold ladder.
type ChurnConfig struct {
	// N is the fleet's configured (and maximum live) size (default 16).
	N int
	// Shards selects the runtime, as FairnessConfig.Shards does: 0 is the
	// supervised single loop (lifecycle.Supervisor, kills and restarts at
	// their exact instants), >= 1 the barrier-aligned sharded runtime
	// (internal/shard), whose replay hash is the same at every count. A
	// fault knob below with Shards 0 runs one shard: faults have no
	// single-loop form.
	Shards int
	// Duration is the run's virtual length (default 120 s).
	Duration time.Duration
	// Seed drives the fleet AND the churn and fault schedules (via the
	// chaos.Sub("churn") and Sub("shardfault") streams, so packet-level
	// chaos would stay independent).
	Seed int64
	// Epoch, DepartProb, CrashProb, ArriveProb and MinLive are the churn
	// schedule, defaulted by lifecycle.ChurnConfig.WithDefaults (10 s,
	// 0.04 / 0.06 / 0.5 when all three are zero, max(1, N/4)); MaxLive
	// is N.
	Epoch                             time.Duration
	DepartProb, CrashProb, ArriveProb float64
	MinLive                           int
	// FairQueue selects the DRR bottleneck.
	FairQueue bool
	// LeanStats drops per-packet series retention; every series-based
	// column of the result (Jain, rates, ramp-up, support, utility
	// ratio) then reads zero.
	LeanStats bool
	// NoChurn leaves the churn schedule off (pure shard-fault runs).
	NoChurn bool
	// NoCheckpoints disables checkpointing: every restart and failover
	// is cold (or hot when a compiled table is wired), never warm. The
	// warm-vs-cold benchmark flips this bit. Otherwise each runtime
	// checkpoints at its own default period: 10 s supervised, 4 s per
	// barrier sweep.
	NoCheckpoints bool
	// ShardKillProb and ShardStallProb arm the deterministic shard-fault
	// schedule (shard.FaultConfig, stalls of at most its default 2 s)
	// when positive.
	ShardKillProb, ShardStallProb float64
}

// schedule is the one conversion to the runtimes' churn schedule.
func (c ChurnConfig) schedule() lifecycle.ChurnConfig {
	return lifecycle.ChurnConfig{
		Epoch: c.Epoch, DepartProb: c.DepartProb, CrashProb: c.CrashProb, ArriveProb: c.ArriveProb,
		MinLive: c.MinLive, MaxLive: c.N,
	}
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.N == 0 {
		c.N = 16
	}
	if c.Duration == 0 {
		c.Duration = 120 * time.Second
	}
	s := c.schedule().WithDefaults(c.N)
	c.Epoch, c.DepartProb, c.CrashProb, c.ArriveProb, c.MinLive = s.Epoch, s.DepartProb, s.CrashProb, s.ArriveProb, s.MinLive
	if c.Shards == 0 && (c.ShardKillProb > 0 || c.ShardStallProb > 0) {
		c.Shards = 1
	}
	return c
}

// ChurnResult is one lifecycle run's report, the same columns from
// either runtime.
type ChurnResult struct {
	// Cfg echoes the resolved configuration (Shards is the partition
	// count actually used).
	Cfg ChurnConfig
	// Live is the population at the end of the run; Peak the flow-space
	// high-water mark.
	Live, Peak int
	// Stats are the lifecycle counters, straight from the runtime.
	lifecycle.Stats
	// OrphanAcks counts retired members' packets that drained after
	// teardown — graceful teardown at work, never a panic.
	OrphanAcks int64
	// Jain is Jain's index over the final-window delivery rates of
	// members live through the whole window.
	Jain float64
	// AggRate is those members' summed delivery rate, packets/s.
	AggRate float64
	// MeanRampUpSec is the mean seconds a restarted generation took to
	// reach 70% of its own steady delivery rate; RampSamples is how
	// many restarted generations lived long enough to measure.
	MeanRampUpSec float64
	RampSamples   int
	// Drops is the bottleneck total across all flows and generations.
	Drops int
	// RestartDropsPerMin is restarted generations' mean bottleneck
	// drops per virtual minute of life — the cost of re-learning. A
	// cold restart probes the link from the prior and pays in drops; a
	// warm restore resumes its converged pacing.
	RestartDropsPerMin float64
	// EarlyRate is restarted generations' mean delivery rate over their
	// first 15 s, packets/s.
	EarlyRate float64
	// RestartSupport15 is restarted generations' mean belief support
	// size over their first 15 s — the warm-vs-cold discriminator.
	// Belief updates and live planning both scale with support, so a
	// warm restore (which resumes its predecessor's converged
	// posterior) re-converges measurably faster and cheaper than a cold
	// start paying down the full prior.
	RestartSupport15 float64
	// UtilityRatio compares restarted members' steady per-second
	// utility (first 20 s after admission excluded) against undisturbed
	// members' second-half per-second utility: 1.0 = full recovery.
	UtilityRatio float64
	// ReplayHash is lifecycle.ReplayHash over the run; on the barrier
	// runtime it is bit-identical for every shard count at fixed (N,
	// Seed, knobs) — the determinism invariant CI holds it to.
	ReplayHash uint64
	// Delivered is the per-flow all-generations delivery total, in flow
	// order.
	Delivered []int
	// Failover aggregates shard-fault outcomes (zero without faults).
	Failover shard.FailoverStats
	// DegradedServed totals decisions served through the Guard
	// degradation ladder while stalled.
	DegradedServed int64
	// FailoverRecovered counts fault-restored generations that absorbed
	// at least one delivery; MTTR is their mean virtual time from kill
	// barrier to that first delivery.
	FailoverRecovered int
	MTTR              time.Duration
	// PostFailoverUtility is the mean final utility across fault-
	// restored generations (zero when none were restored).
	PostFailoverUtility float64
}

// RunChurn runs one lifecycle simulation on the runtime cfg.Shards
// selects and reduces it. The result is a pure function of the config:
// the shard count, once it is >= 1, changes wall-clock time only.
func RunChurn(cfg ChurnConfig) ChurnResult {
	cfg = cfg.withDefaults()
	fc := fleet.Config{
		N:         cfg.N,
		Seed:      cfg.Seed,
		FairQueue: cfg.FairQueue,
		LeanStats: cfg.LeanStats,
		// Recover mode: a collapsed posterior re-seeds from the prior
		// (and counts toward the health signal) instead of merely
		// relaxing.
		BeliefCfg: belief.Config{Recover: true},
	}
	ch := chaos.Config{Seed: cfg.Seed}
	res := ChurnResult{Cfg: cfg}
	if cfg.Shards == 0 {
		fl := fleet.New(fc)
		var supCfg lifecycle.SupervisorConfig
		if cfg.NoCheckpoints {
			supCfg.CheckpointEvery = -1
		}
		sup := lifecycle.NewSupervisor(fl, supCfg)
		if !cfg.NoChurn {
			sup.EnableChurn(cfg.schedule(), ch)
		}
		sup.Start()
		fl.Run(cfg.Duration)
		res.Stats, res.OrphanAcks = sup.Stats, fl.OrphanAcks
		reduceChurn(&res, fl, sup.Records, sup.Events)
		return res
	}
	sf := shard.New(shard.Config{Fleet: fc, Shards: cfg.Shards})
	if !cfg.NoCheckpoints {
		sf.EnableCheckpoints(shard.CheckpointConfig{})
	}
	if cfg.ShardKillProb > 0 || cfg.ShardStallProb > 0 {
		sf.EnableFaults(shard.FaultConfig{KillProb: cfg.ShardKillProb, StallProb: cfg.ShardStallProb}, ch)
	}
	if !cfg.NoChurn {
		sf.EnableChurn(cfg.schedule(), lifecycle.SupervisorConfig{}, ch)
	}
	sf.Run(cfg.Duration)
	res.Cfg.Shards = sf.K
	res.Stats, res.OrphanAcks = sf.Stats, sf.OrphanAcks
	res.Failover, res.DegradedServed = sf.Failover, sf.DegradedServed()
	reduceChurn(&res, sf, sf.Records, sf.Events)
	return res
}

// reduceChurn fills in every column computed from a finished run — the
// same reduction for either runtime — reading per-flow and per-record
// data in index order only. res arrives holding the config and the
// counters the runtime keeps itself.
func reduceChurn(res *ChurnResult, rt fleetRuntime, recs []lifecycle.MemberRecord, events []lifecycle.Event) {
	cfg := res.Cfg
	dur := cfg.Duration
	slots := rt.MemberSlots()
	res.Live, res.Peak, res.Drops = rt.Live(), len(slots), rt.Drops()

	// Fairness over the members that saw the whole final window; a lean
	// run keeps no series to take rates from (and all-zero rates would
	// read as a perfect index).
	if !cfg.LeanStats {
		window := dur / 4
		from := dur - window
		var rates []float64
		for _, m := range slots {
			if m == nil || m.AdmittedAt > from {
				continue
			}
			w := m.AckedSeq.Window(from, dur)
			r := float64(len(w.Pts)) / window.Seconds()
			rates = append(rates, r)
			res.AggRate += r
		}
		res.Jain = stats.JainIndex(rates)
	}

	// Ramp-up and post-restart utility, per restarted generation that
	// lived long enough to measure.
	const (
		rampWindow = 10 * time.Second
		utilGrace  = 20 * time.Second
		rampFrac   = 0.7
	)
	var (
		rampSum   float64
		utilRates []float64
		earlySum  float64
		earlyN    int
		dropSum   float64
		dropN     int
		supSum    float64
		supN      int
	)
	const earlyWindow = 15 * time.Second
	for _, rec := range recs {
		if rec.Cause != lifecycle.CauseRestart {
			continue
		}
		start := rec.M.AdmittedAt
		end := rec.RetiredAt
		if end < 0 {
			end = dur
		}
		life := end - start
		if life >= earlyWindow {
			ew := rec.M.AckedSeq.Window(start, start+earlyWindow)
			earlySum += float64(len(ew.Pts)) / earlyWindow.Seconds()
			earlyN++
			drops := rec.M.GenDrops
			if rec.RetiredAt < 0 {
				drops = rt.FlowDrops(rec.M.Flow)
			}
			dropSum += float64(drops) / life.Minutes()
			dropN++
			if sw := rec.M.SupportN.Window(start, start+earlyWindow); len(sw.Pts) > 0 {
				var s float64
				for _, p := range sw.Pts {
					s += p.V
				}
				supSum += s / float64(len(sw.Pts))
				supN++
			}
		}
		if life < 3*rampWindow {
			continue
		}
		// The generation's own steady rate: its second half of life.
		steadyFrom := start + life/2
		sw := rec.M.AckedSeq.Window(steadyFrom, end)
		steady := float64(len(sw.Pts)) / (end - steadyFrom).Seconds()
		if steady <= 0 {
			continue
		}
		for t := start; t <= steadyFrom; t += time.Second {
			rw := rec.M.AckedSeq.Window(t, t+rampWindow)
			r := float64(len(rw.Pts)) / rampWindow.Seconds()
			if r >= rampFrac*steady {
				rampSum += (t - start).Seconds()
				res.RampSamples++
				break
			}
		}
		if life > utilGrace+rampWindow {
			u0, _ := rec.M.UtilCum.ValueAt(start + utilGrace)
			u1, _ := rec.M.UtilCum.ValueAt(end)
			utilRates = append(utilRates, (u1-u0)/(end-start-utilGrace).Seconds())
		}
	}
	if res.RampSamples > 0 {
		res.MeanRampUpSec = rampSum / float64(res.RampSamples)
	}
	if earlyN > 0 {
		res.EarlyRate = earlySum / float64(earlyN)
	}
	if dropN > 0 {
		res.RestartDropsPerMin = dropSum / float64(dropN)
	}
	if supN > 0 {
		res.RestartSupport15 = supSum / float64(supN)
	}

	// Baseline: initial members that were never disturbed and are still
	// live — their second-half utility per second.
	var baseSum float64
	var baseN int
	half := dur / 2
	for _, rec := range recs {
		if rec.Cause == lifecycle.CauseRestart || rec.RetiredAt >= 0 || rec.M.Gen != 0 || rec.M.Retired() {
			continue
		}
		u0, _ := rec.M.UtilCum.ValueAt(half)
		u1, _ := rec.M.UtilCum.ValueAt(dur)
		baseSum += (u1 - u0) / half.Seconds()
		baseN++
	}
	if baseN > 0 && len(utilRates) > 0 {
		base := baseSum / float64(baseN)
		var s float64
		for _, r := range utilRates {
			s += r
		}
		if base > 0 {
			res.UtilityRatio = (s / float64(len(utilRates))) / base
		}
	}

	// Failover recovery, per fault-restored generation.
	var mttrSum time.Duration
	var foUtil float64
	restored := 0
	for _, rec := range recs {
		if rec.Cause != lifecycle.CauseFailover {
			continue
		}
		restored++
		foUtil += rec.M.Utility
		if rec.FirstAckAt > rec.M.AdmittedAt {
			res.FailoverRecovered++
			mttrSum += rec.FirstAckAt - rec.M.AdmittedAt
		}
	}
	if res.FailoverRecovered > 0 {
		res.MTTR = mttrSum / time.Duration(res.FailoverRecovered)
	}
	if restored > 0 {
		res.PostFailoverUtility = foUtil / float64(restored)
	}

	for i := range slots {
		res.Delivered = append(res.Delivered, rt.DeliveredTotal(packet.FlowID(i)))
	}
	res.ReplayHash = lifecycle.ReplayHash(res.Live, res.Drops, res.OrphanAcks, res.Delivered, events)
}

// ChurnSweepConfig sweeps RunChurn over fleet sizes.
type ChurnSweepConfig struct {
	// Ns are the fleet sizes (default 4, 16, 64).
	Ns []int
	// Base is the per-run configuration; N is overridden per point.
	Base ChurnConfig
}

// ChurnSweepResult is the whole sweep.
type ChurnSweepResult struct {
	Points []ChurnResult
}

// ChurnSweep runs one lifecycle simulation per fleet size.
func ChurnSweep(cfg ChurnSweepConfig) ChurnSweepResult {
	ns := cfg.Ns
	if len(ns) == 0 {
		ns = []int{4, 16, 64}
	}
	var res ChurnSweepResult
	for _, n := range ns {
		c := cfg.Base
		c.N = n
		res.Points = append(res.Points, RunChurn(c))
	}
	return res
}

// Render prints the one lifecycle table: a line per fleet size with
// population flux, restart ladder usage, the recovery metrics and the
// replay hash, then a faults line for each point that saw any.
func (r ChurnSweepResult) Render() string {
	var b strings.Builder
	if len(r.Points) > 0 {
		c := r.Points[0].Cfg
		if c.NoChurn {
			fmt.Fprintf(&b, "Shard-fault sweep: %v virtual, no churn schedule", c.Duration)
		} else {
			fmt.Fprintf(&b, "Churn sweep: %v virtual, epoch %v, depart/crash/arrive %.2f/%.2f/%.2f",
				c.Duration, c.Epoch, c.DepartProb, c.CrashProb, c.ArriveProb)
		}
		fmt.Fprintf(&b, ", seed %d (shards 0 = the supervised single loop)\n", c.Seed)
	}
	fmt.Fprintf(&b, "%-6s %6s %6s %6s %6s %6s %6s %14s %10s %8s %8s %10s %8s %8s %8s %10s %8s %16s\n",
		"N", "shards", "live", "arr", "dep", "crash", "fail", "cold/hot/warm", "delivered", "drops", "jain", "agg pkt/s", "ramp(s)", "sup15", "util", "drops/min", "orphans", "replay hash")
	for _, p := range r.Points {
		delivered := 0
		for _, d := range p.Delivered {
			delivered += d
		}
		fmt.Fprintf(&b, "%-6d %6d %6d %6d %6d %6d %6d %4d/%4d/%4d %10d %8d %8.4f %10.3f %8.2f %8.1f %8.3f %10.1f %8d %016x\n",
			p.Cfg.N, p.Cfg.Shards, p.Live, p.Arrivals, p.Departures, p.Crashes, p.Failures,
			p.ColdRestarts, p.HotRestarts, p.WarmRestarts, delivered, p.Drops,
			p.Jain, p.AggRate, p.MeanRampUpSec, p.RestartSupport15, p.UtilityRatio, p.RestartDropsPerMin, p.OrphanAcks, p.ReplayHash)
	}
	for _, p := range r.Points {
		fo := p.Failover
		if fo.ShardKills == 0 && fo.Stalls == 0 {
			continue
		}
		fmt.Fprintf(&b, "N=%d faults: kills=%d failedOver=%d (warm=%d hot=%d cold=%d) fencedAcks=%d stalls=%d degraded=%d recovered=%d mttr=%v postUtil=%.3f\n",
			p.Cfg.N, fo.ShardKills, fo.FlowsFailedOver,
			fo.WarmFailovers, fo.HotFailovers, fo.ColdFailovers,
			fo.FencedAcks, fo.Stalls,
			p.DegradedServed, p.FailoverRecovered, p.MTTR, p.PostFailoverUtility)
	}
	return b.String()
}
