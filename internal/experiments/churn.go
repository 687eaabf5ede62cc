package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
	"modelcc/internal/stats"
)

// ChurnConfig describes one supervised churn run: a fleet under a
// deterministic arrival/departure/crash schedule with a crash-recovery
// Supervisor restarting the casualties.
type ChurnConfig struct {
	// N is the fleet's configured (and maximum live) size (default 16).
	N int
	// Duration is the run's virtual length (default 120 s).
	Duration time.Duration
	// Seed drives the fleet AND the churn schedule (via the
	// chaos.Sub("churn") stream, so packet-level chaos would stay
	// independent).
	Seed int64
	// Epoch is the churn decision period (default 10 s).
	Epoch time.Duration
	// DepartProb/CrashProb are per live member per epoch; ArriveProb is
	// per open slot per epoch (defaults 0.04 / 0.06 / 0.5).
	DepartProb, CrashProb, ArriveProb float64
	// MinLive floors the population (default max(1, N/4)).
	MinLive int
	// Workers is the rollout pool width (0 = GOMAXPROCS, 1 = serial);
	// the result is bit-identical for any value.
	Workers int
	// FairQueue selects the DRR bottleneck.
	FairQueue bool
	// NoCheckpoints disables the Supervisor's checkpoint timer: every
	// restart is cold (or hot when a compiled table is wired), never
	// warm. The warm-vs-cold benchmark flips this bit.
	NoCheckpoints bool
	// CheckpointDir mirrors checkpoints to disk when set.
	CheckpointDir string
	// Supervisor overrides lifecycle.SupervisorConfig fields; zero
	// values keep that package's defaults.
	Supervisor lifecycle.SupervisorConfig
}

func (c ChurnConfig) withDefaults() ChurnConfig {
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
		if c.MinLive < 1 {
			c.MinLive = 1
		}
	}
	return c
}

// ChurnResult is one churn run's report.
type ChurnResult struct {
	// Cfg echoes the resolved configuration.
	Cfg ChurnConfig
	// Live is the population at the end of the run; Peak the flow-space
	// high-water mark.
	Live, Peak int
	// Lifecycle counters, straight from the Supervisor.
	Arrivals, Departures, Crashes, Failures int
	ColdRestarts, HotRestarts, WarmRestarts int
	Checkpoints, CheckpointErrors           int
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
	// ReplayHash digests per-flow delivery totals, drops and the whole
	// lifecycle event log; equal hashes mean bit-identical runs.
	ReplayHash uint64
	// Delivered is the per-flow all-generations delivery total, in flow
	// order.
	Delivered []int
}

// RunChurn runs one supervised churn simulation. Everything — fleet,
// churn schedule, failures, restarts — lives on one discrete-event
// loop, so the result is a pure function of the config (the Workers
// knob changes wall-clock time only).
func RunChurn(cfg ChurnConfig) ChurnResult {
	cfg = cfg.withDefaults()
	fl := fleet.New(fleet.Config{
		N:         cfg.N,
		Seed:      cfg.Seed,
		Workers:   cfg.Workers,
		FairQueue: cfg.FairQueue,
		// Recover mode: a collapsed posterior re-seeds from the prior
		// (and counts toward the Supervisor's health signal) instead of
		// merely relaxing.
		BeliefCfg: belief.Config{Recover: true},
	})
	supCfg := cfg.Supervisor
	supCfg.Dir = cfg.CheckpointDir
	if cfg.NoCheckpoints {
		supCfg.CheckpointEvery = -1
	}
	sup := lifecycle.NewSupervisor(fl, supCfg)
	adm := lifecycle.NewAdmission(sup, lifecycle.ChurnConfig{
		Epoch:      cfg.Epoch,
		DepartProb: cfg.DepartProb,
		CrashProb:  cfg.CrashProb,
		ArriveProb: cfg.ArriveProb,
		MinLive:    cfg.MinLive,
		MaxLive:    cfg.N,
	}, chaos.Config{Seed: cfg.Seed})
	sup.Start()
	adm.Start()
	fl.Run(cfg.Duration)
	adm.Stop()
	sup.Stop()
	return reduceChurn(cfg, fl, sup)
}

// reduceChurn computes the report from a finished run, reading per-flow
// and per-record data in index order only.
func reduceChurn(cfg ChurnConfig, fl *fleet.Fleet, sup *lifecycle.Supervisor) ChurnResult {
	dur := cfg.Duration
	res := ChurnResult{
		Cfg:              cfg,
		Live:             fl.Live(),
		Peak:             len(fl.Members),
		Arrivals:         sup.Stats.Arrivals,
		Departures:       sup.Stats.Departures,
		Crashes:          sup.Stats.Crashes,
		Failures:         sup.Stats.Failures,
		ColdRestarts:     sup.Stats.ColdRestarts,
		HotRestarts:      sup.Stats.HotRestarts,
		WarmRestarts:     sup.Stats.WarmRestarts,
		Checkpoints:      sup.Stats.Checkpoints,
		CheckpointErrors: sup.Stats.CheckpointErrors,
		OrphanAcks:       fl.OrphanAcks,
		Drops:            fl.Drops(),
	}

	// Fairness over the members that saw the whole final window.
	window := dur / 4
	from := dur - window
	var rates []float64
	for _, m := range fl.Members {
		if m == nil || m.AdmittedAt > from {
			continue
		}
		w := m.AckedSeq.Window(from, dur)
		r := float64(len(w.Pts)) / window.Seconds()
		rates = append(rates, r)
		res.AggRate += r
	}
	res.Jain = stats.JainIndex(rates)

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
	for _, rec := range sup.Records {
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
				drops = fl.FlowDrops(rec.M.Flow)
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
	for _, rec := range sup.Records {
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

	// Replay hash: per-flow totals plus the full lifecycle log.
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	put(uint64(len(fl.Members)), uint64(fl.Live()), uint64(fl.Drops()), uint64(fl.OrphanAcks))
	for i := range fl.Members {
		d := fl.DeliveredTotal(packet.FlowID(i))
		res.Delivered = append(res.Delivered, d)
		put(uint64(i), uint64(d))
	}
	for _, e := range sup.Events {
		put(uint64(e.At), uint64(e.Kind), uint64(e.Flow), uint64(e.Gen), uint64(e.Restart))
	}
	res.ReplayHash = h.Sum64()
	return res
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

// ChurnSweep runs one supervised churn simulation per fleet size.
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

// Render prints one line per fleet size: population flux, restart
// ladder usage, and the recovery metrics.
func (r ChurnSweepResult) Render() string {
	var b strings.Builder
	if len(r.Points) > 0 {
		c := r.Points[0].Cfg
		fmt.Fprintf(&b, "Churn sweep: %v virtual, epoch %v, depart/crash/arrive %.2f/%.2f/%.2f, seed %d\n",
			c.Duration, c.Epoch, c.DepartProb, c.CrashProb, c.ArriveProb, c.Seed)
	}
	fmt.Fprintf(&b, "%-6s %6s %6s %6s %6s %6s %14s %8s %10s %8s %8s %8s %10s\n",
		"N", "live", "arr", "dep", "crash", "fail", "cold/hot/warm", "jain", "agg pkt/s", "ramp(s)", "sup15", "util", "orphans")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6d %6d %6d %6d %6d %6d %4d/%4d/%4d %8.4f %10.3f %8.2f %8.1f %8.3f %10d\n",
			p.Cfg.N, p.Live, p.Arrivals, p.Departures, p.Crashes, p.Failures,
			p.ColdRestarts, p.HotRestarts, p.WarmRestarts,
			p.Jain, p.AggRate, p.MeanRampUpSec, p.RestartSupport15, p.UtilityRatio, p.OrphanAcks)
	}
	return b.String()
}
