// Command fleetsim runs N-sender fleet simulations: N coexisting
// ISENDERs share one bottleneck inside one process on the batching
// arbitration layer (internal/fleet). It has three modes, each with its
// own flag set bound straight into the experiment's config — a flag that
// means nothing in a mode is a parse error there, and `fleetsim <mode>
// -h` prints that mode's flags with their defaults.
//
//	fleetsim [sweep] [-n 2,4,16,64,256] [-dur 120s] [-seed 1] [-fq]
//	         [-workers 0] [-shards NumCPU] [-lean] [-jain-floor 0]
//	         [-json f] [-cpuprofile f] [-memprofile f] [-trace f]
//	         [-alpha 1] [-rate 6000] [-per-flow] [-no-cache]
//
// The fairness sweep (experiments.FairnessSweep; a bare `fleetsim -n …`
// means this mode): one steady fleet per size, reporting Jain's index,
// per-flow throughput and delay, aggregate utility. Each fleet runs on
// the sharded runtime (internal/shard), bit-identical for every shard
// count >= 1; -shards 0 is the single-loop fleet, whose arrival-order
// scheduling takes a different (equally deterministic) trajectory.
//
//	fleetsim churn [the shared flags above, -shards default 0]
//	         [-epoch 10s] [-depart .04] [-crash .06] [-arrive .5]
//	         [-no-ckpt] [-verify-shards 1,4] [-smoke]
//
// The fleet lives under a seeded churn schedule — arrivals, departures,
// crash-kills — with casualties restarted through the hot/warm/cold
// ladder (experiments.RunChurn). -shards 0 is the supervised single
// loop (internal/lifecycle), -shards K >= 1 the barrier-aligned sharded
// lifecycle, whose replay hash is the same at every K; both print the
// one table. -verify-shards re-runs every point at each listed count
// and fails unless the hashes agree bit for bit (it implies the sharded
// runtime). -jain-floor holds the final-window Jain index to a floor (a
// usage error with -lean, which keeps no series to compute it from).
//
//	fleetsim fault [the shared flags above, -shards default 0]
//	         [-shard-crash] [-shard-stall] [-churn]
//	         [-no-ckpt] [-verify-shards 1,4] [-smoke]
//
// The sharded runtime under the deterministic shard-kill/stall schedule:
// whole virtual shards die at window barriers and fail over onto
// survivors, stalled shards serve degraded through the Guard ladder.
// Faults have no single-loop form, so -shards 0 runs one shard, and
// the replay hash is the same at every K. -churn adds the churn
// schedule at its defaults.
//
// Examples:
//
//	go run ./cmd/fleetsim -n 2,16 -dur 60s           # quick look
//	go run ./cmd/fleetsim -fq                        # DRR fair-queue bottleneck
//	go run ./cmd/fleetsim -n 256 -per-flow           # every flow's numbers
//	go run ./cmd/fleetsim -n 256 -shards 8 -lean     # big fleet, flat heap
//	go run ./cmd/fleetsim -jain-floor 0.9            # exit 3 if any point under
//	go run ./cmd/fleetsim churn -smoke               # CI churn soak
//	go run ./cmd/fleetsim churn -n 16 -seed 1 -shards 1      # the same table from the barrier runtime
//	go run ./cmd/fleetsim churn -smoke -verify-shards 1,4    # one hash at K = 1 and 4
//	go run ./cmd/fleetsim fault -shards 4 -shard-crash -smoke    # failover soak
//	go run ./cmd/fleetsim fault -shard-crash -verify-shards 1,4  # failover determinism
//
// Exit status: 0 on success, 1 when a run's own check fails, 2 on usage
// errors, 3 when any point's Jain index falls below -jain-floor.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"modelcc/internal/experiments"
	"modelcc/internal/lifecycle"
)

func main() {
	mode, args := "sweep", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	switch mode {
	case "sweep":
		fs, s := sweepFlags()
		fs.Parse(args)
		os.Exit(s.run())
	case "churn", "fault":
		fs, l := lifecycleFlags(mode)
		fs.Parse(args)
		os.Exit(l.run())
	}
	fmt.Fprintf(os.Stderr, "fleetsim: unknown mode %q; usage: fleetsim [sweep|churn|fault] [flags] (-h lists a mode's flags)\n", mode)
	os.Exit(2)
}

// options are the flags that configure the command rather than the
// experiment; every mode has them.
type options struct {
	jainFloor                     float64
	jsonOut                       string
	cpuprofile, memprofile, trace string
}

// sharedFlags registers the flags every mode has. The experiment knobs
// bind to the mode's own config through the pointers: FairnessConfig and
// ChurnConfig name them alike.
func sharedFlags(fs *flag.FlagSet, o *options, ns *[]int, dur *time.Duration, seed *int64, fq *bool, workers, shards *int, lean *bool) {
	fs.Var((*sizeList)(ns), "n", "comma-separated fleet sizes (default 2,4,16,64,256; churn and fault 4,16,64)")
	fs.DurationVar(dur, "dur", *dur, "virtual duration per run")
	fs.Int64Var(seed, "seed", *seed, "simulation seed")
	fs.BoolVar(fq, "fq", false, "DRR fair-queue bottleneck instead of tail-drop FIFO")
	fs.IntVar(workers, "workers", 0, "total rollout pool width (0 = GOMAXPROCS, 1 = serial); results are identical for any value")
	fs.IntVar(shards, "shards", *shards, "parallel DES shards per fleet (0 = the single-loop runtime; one shard under fault); results are bit-identical for any count >= 1")
	fs.BoolVar(lean, "lean", false, "streaming statistics only: no per-packet series, flat heap at large N")
	fs.Float64Var(&o.jainFloor, "jain-floor", 0, "exit 3 when any point's Jain index is below this floor")
	fs.StringVar(&o.jsonOut, "json", "", "also write the result points as JSON to this file")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.trace, "trace", "", "write a runtime execution trace to this file")
}

// sweepRun is a parsed `fleetsim sweep` command line.
type sweepRun struct {
	cfg     experiments.FairnessConfig
	opts    options
	perFlow bool
}

func sweepFlags() (*flag.FlagSet, *sweepRun) {
	s := &sweepRun{cfg: experiments.FairnessConfig{
		Duration: 120 * time.Second, Seed: 1, Alpha: 1, PerSenderRate: 6000, Shards: runtime.NumCPU(),
	}}
	c := &s.cfg
	fs := flag.NewFlagSet("fleetsim sweep", flag.ExitOnError)
	sharedFlags(fs, &s.opts, &c.Ns, &c.Duration, &c.Seed, &c.FairQueue, &c.Workers, &c.Shards, &c.LeanStats)
	fs.Float64Var(&c.Alpha, "alpha", c.Alpha, "cross-traffic priority α for every member")
	fs.Float64Var((*float64)(&c.PerSenderRate), "rate", float64(c.PerSenderRate), "per-sender fair share in bits/s (link = N × rate)")
	fs.BoolVar(&c.NoSharedCache, "no-cache", false, "disable the fleet-wide shared policy cache")
	fs.BoolVar(&s.perFlow, "per-flow", false, "print every flow's throughput/delay/drops")
	return fs, s
}

func (s *sweepRun) run() int {
	if err := checkRanges(s.cfg.Duration, time.Second, float64(s.cfg.PerSenderRate), s.cfg.Alpha, 0, 0, 0, s.opts.jainFloor, s.cfg.Shards, s.cfg.Workers); err != nil {
		return fail(2, "%v", err)
	}
	return s.opts.profiled(func() int {
		start := time.Now()
		res := experiments.FairnessSweep(s.cfg)
		fmt.Print(res.Render())
		fmt.Printf("(%v wall)\n", time.Since(start).Round(time.Millisecond))
		if s.perFlow {
			for _, p := range res.Points {
				fmt.Printf("\nN=%d per flow:\n%-6s %10s %10s %12s %12s %12s %8s %14s\n",
					p.N, "flow", "pkt/s", "delivered", "delay(s)", "p99 dly(s)", "max dly(s)", "drops", "utility")
				for _, fs := range p.PerFlow {
					fmt.Printf("%-6d %10.4f %10d %12.3f %12.3f %12.3f %8d %14.1f\n",
						fs.Flow, fs.Rate, fs.Delivered, fs.MeanDelay, fs.P99Delay, fs.MaxDelay, fs.Drops, fs.Utility)
				}
			}
		}
		var jains []float64
		for _, p := range res.Points {
			jains = append(jains, p.Jain)
		}
		return s.opts.finish(res, jains)
	})
}

// lifecycleRun is a parsed `fleetsim churn` or `fleetsim fault` command
// line: one ChurnConfig per fleet size, on whichever runtime -shards
// selects.
type lifecycleRun struct {
	sweep  experiments.ChurnSweepConfig
	opts   options
	verify sizeList
	smoke  bool
	// crash and stall arm the shard-fault schedule at fixed rates.
	crash, stall bool
}

func lifecycleFlags(mode string) (*flag.FlagSet, *lifecycleRun) {
	l := &lifecycleRun{}
	c := &l.sweep.Base
	c.Duration, c.Seed = 120*time.Second, 1
	d := lifecycle.ChurnConfig{}.WithDefaults(0)
	c.Epoch, c.DepartProb, c.CrashProb, c.ArriveProb = d.Epoch, d.DepartProb, d.CrashProb, d.ArriveProb
	fs := flag.NewFlagSet("fleetsim "+mode, flag.ExitOnError)
	sharedFlags(fs, &l.opts, &l.sweep.Ns, &c.Duration, &c.Seed, &c.FairQueue, &c.Workers, &c.Shards, &c.LeanStats)
	fs.BoolVar(&c.NoCheckpoints, "no-ckpt", false, "disable checkpoints: every restart and failover cold instead of warm")
	fs.Var(&l.verify, "verify-shards", "comma-separated shard counts to re-run every point at; fail unless replay hashes agree (implies the sharded runtime)")
	fs.BoolVar(&l.smoke, "smoke", false, "small fast soak for CI (N=8, 60 s; overrides -n and -dur)")
	if mode == "churn" {
		fs.DurationVar(&c.Epoch, "epoch", c.Epoch, "churn decision period")
		fs.Float64Var(&c.DepartProb, "depart", c.DepartProb, "per-member per-epoch departure probability")
		fs.Float64Var(&c.CrashProb, "crash", c.CrashProb, "per-member per-epoch crash probability")
		fs.Float64Var(&c.ArriveProb, "arrive", c.ArriveProb, "per-open-slot per-epoch arrival probability")
		return fs, l
	}
	c.NoChurn = true
	fs.BoolFunc("churn", "also run the churn schedule, at its defaults", func(s string) error {
		on, err := strconv.ParseBool(s)
		c.NoChurn = !on
		return err
	})
	fs.BoolVar(&l.crash, "shard-crash", false, "arm the deterministic shard-kill schedule (whole virtual shards fail over at barriers; stalls too)")
	fs.BoolVar(&l.stall, "shard-stall", false, "arm the deterministic stall schedule (stalled shards serve degraded)")
	return fs, l
}

// resolve turns the parsed flags that are not config fields into the
// config and refuses the combinations that cannot mean anything. A
// non-nil error is a usage error.
func (l *lifecycleRun) resolve() error {
	c := &l.sweep.Base
	if err := checkRanges(c.Duration, c.Epoch, 1, 1, c.DepartProb, c.CrashProb, c.ArriveProb, l.opts.jainFloor, c.Shards, c.Workers); err != nil {
		return err
	}
	if l.opts.jainFloor > 0 && c.LeanStats {
		return fmt.Errorf("-jain-floor needs the per-packet series -lean drops: a lean lifecycle run has no Jain index to hold to a floor")
	}
	if l.smoke {
		// One small fast point: enough churn or faults to exercise
		// teardown, restart and recycling under -race within a CI timeout.
		l.sweep.Ns, c.Duration = []int{8}, 60*time.Second
	}
	if l.crash {
		c.ShardKillProb = 0.3
	}
	if l.crash || l.stall {
		c.ShardStallProb = 0.25
	}
	if len(l.verify) > 0 && c.Shards == 0 {
		// The single loop's hash is its own; only the barrier runtime's
		// is shard-count invariant.
		c.Shards = l.verify[0]
	}
	return nil
}

func (l *lifecycleRun) run() int {
	if err := l.resolve(); err != nil {
		return fail(2, "%v", err)
	}
	return l.opts.profiled(func() int {
		start := time.Now()
		res := experiments.ChurnSweep(l.sweep)
		for _, p := range res.Points {
			for _, k := range l.verify {
				if k == p.Cfg.Shards {
					continue
				}
				alt := p.Cfg
				alt.Shards = k
				if got := experiments.RunChurn(alt); got.ReplayHash != p.ReplayHash {
					return fail(1, "N=%d replay hash diverges across shard counts: shards=%d %016x vs shards=%d %016x",
						p.Cfg.N, p.Cfg.Shards, p.ReplayHash, k, got.ReplayHash)
				}
			}
		}
		fmt.Print(res.Render())
		if len(l.verify) > 0 {
			fmt.Printf("replay hashes verified bit-identical across shards=%v\n", []int(l.verify))
		}
		fmt.Printf("(%v wall)\n", time.Since(start).Round(time.Millisecond))
		var jains []float64
		for _, p := range res.Points {
			switch {
			case !p.Cfg.NoChurn && p.Crashes+p.Departures+p.Arrivals == 0:
				return fail(1, "N=%d churn schedule produced no lifecycle events", p.Cfg.N)
			case l.crash && p.Failover.ShardKills == 0:
				return fail(1, "N=%d shard-crash schedule produced no kills", p.Cfg.N)
			case (l.crash || l.stall) && p.Failover.Stalls == 0:
				return fail(1, "N=%d stall schedule produced no stalls", p.Cfg.N)
			case p.CheckpointErrors > 0:
				return fail(1, "N=%d saw %d checkpoint errors", p.Cfg.N, p.CheckpointErrors)
			}
			jains = append(jains, p.Jain)
		}
		return l.opts.finish(res.Points, jains)
	})
}

// fail prints the message to stderr and returns code, for a caller to
// return in turn.
func fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "fleetsim: "+format+"\n", args...)
	return code
}

// finish ends a successful run: it writes -json's file (an empty path
// means none was asked for) and holds the points to -jain-floor — the CI
// tripwire for fairness regressions. It returns the exit status.
func (o *options) finish(points any, jains []float64) int {
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(points, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, b, 0o644)
		}
		if err != nil {
			return fail(1, "writing %s: %v", o.jsonOut, err)
		}
	}
	for i, j := range jains {
		if o.jainFloor > 0 && j < o.jainFloor {
			return fail(3, "point %d Jain %.4f below floor %.4f", i, j, o.jainFloor)
		}
	}
	return 0
}

// checkRanges refuses numeric flags outside their domain — a negative
// -dur would run a zero-length sweep and exit 0, a non-positive -rate
// would silently become the default. A mode passes an in-range constant
// for a flag it does not have. A non-nil error is a usage error.
func checkRanges(dur, epoch time.Duration, rate, alpha, depart, crash, arrive, jainFloor float64, shards, workers int) error {
	prob := func(p float64) bool { return p >= 0 && p <= 1 }
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	for _, c := range []struct {
		ok   bool
		flag string
		v    any
		want string
	}{
		{dur > 0, "-dur", dur, "must be positive"},
		{epoch > 0, "-epoch", epoch, "must be positive"},
		{rate > 0 && finite(rate), "-rate", rate, "must be positive and finite"},
		{alpha > 0 && finite(alpha), "-alpha", alpha, "must be positive and finite (the fleet reads 0 as unset and would run at α = 1)"},
		{prob(depart), "-depart", depart, "must be a probability in [0, 1]"},
		{prob(crash), "-crash", crash, "must be a probability in [0, 1]"},
		{prob(arrive), "-arrive", arrive, "must be a probability in [0, 1]"},
		{prob(jainFloor), "-jain-floor", jainFloor, "must be in [0, 1]"},
		{shards >= 0, "-shards", shards, "must not be negative"},
		{workers >= 0, "-workers", workers, "must not be negative"},
	} {
		if !c.ok {
			return fmt.Errorf("%s %v: %s", c.flag, c.v, c.want)
		}
	}
	return nil
}

// profiled runs fn between arming and finishing the requested CPU
// profile, heap profile and execution trace, and returns its status.
func (o *options) profiled(fn func() int) int {
	var cpuF, trF *os.File
	var err error
	if o.cpuprofile != "" {
		if cpuF, err = os.Create(o.cpuprofile); err == nil {
			err = pprof.StartCPUProfile(cpuF)
		}
	}
	if err == nil && o.trace != "" {
		if trF, err = os.Create(o.trace); err == nil {
			err = trace.Start(trF)
		}
	}
	if err != nil {
		return fail(2, "%v", err)
	}
	code := fn()
	if cpuF != nil {
		pprof.StopCPUProfile()
		cpuF.Close()
	}
	if trF != nil {
		trace.Stop()
		trF.Close()
	}
	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: heap profile: %v\n", err)
		}
	}
	return code
}

// sizeList is a comma-separated list of positive integers as a flag
// value: fleet sizes, shard counts.
type sizeList []int

func (l *sizeList) String() string {
	parts := make([]string, len(*l))
	for i, n := range *l {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

func (l *sizeList) Set(s string) error {
	*l = nil
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return fmt.Errorf("bad size %q", part)
		}
		*l = append(*l, n)
	}
	if len(*l) == 0 {
		return fmt.Errorf("no size given")
	}
	return nil
}
