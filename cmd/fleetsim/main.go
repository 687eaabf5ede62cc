// Command fleetsim runs N-sender fleet simulations: N coexisting
// ISENDERs share one bottleneck inside one process on the batching
// arbitration layer (internal/fleet).
//
// Two modes:
//
//   - Fairness sweep (default): one steady fleet per size; reports
//     Jain's index, per-flow throughput/delay, aggregate utility. By
//     default each fleet runs on the sharded runtime (internal/shard):
//     one DES loop per CPU, coupled through the shared bottleneck by
//     deterministic windowed lookahead. Results are bit-identical
//     for every shard count >= 1. -shards 0 forces the default
//     single-loop fleet, whose arrival-order scheduling takes a
//     different (equally deterministic) trajectory.
//   - Churn (-churn): the fleet lives under a seeded churn schedule —
//     arrivals, departures, crash-kills — with the lifecycle
//     Supervisor checkpointing members and restarting casualties
//     through the hot/warm/cold ladder (internal/lifecycle). With
//     -shards K the barrier-aligned sharded lifecycle runs instead,
//     with barrier checkpoints (disable via -no-ckpt, mirror via
//     -checkpoint-dir) giving its restarts the same ladder. -jain-floor
//     holds either protocol's final-window Jain index to a floor (a
//     usage error with -lean, which keeps no series to compute it from).
//   - Shard faults (-shard-crash / -shard-stall): the sharded runtime
//     under the deterministic shard-kill/stall schedule — whole
//     virtual shards die at window barriers and fail over onto
//     survivors, stalled shards serve degraded through the Guard
//     ladder. There is no single-loop fault mode, so -shards 0 runs
//     one shard here. -window-budget arms the wall-clock watchdog
//     (nondeterministic; keep it off when hashes matter).
//     -verify-shards "1,4" re-runs every point at each listed shard
//     count and fails unless the replay hashes agree bit for bit.
//
// Usage:
//
//	go run ./cmd/fleetsim [-n 2,4,16,64,256] [-dur 120s] [-seed 1]
//	                      [-alpha 1] [-rate 6000] [-fq] [-workers 0]
//	                      [-per-flow] [-no-cache] [-jain-floor 0]
//	                      [-shards N] [-lean] [-json out.json]
//	                      [-cpuprofile f] [-memprofile f] [-trace f]
//	go run ./cmd/fleetsim -churn [-epoch 10s] [-depart .04] [-crash .06]
//	                      [-arrive .5] [-no-ckpt] [-checkpoint-dir d]
//	                      [-json out.json]
//	go run ./cmd/fleetsim -shard-crash [-shard-stall] [-shards K]
//	                      [-window-budget 0] [-verify-shards "1,4"]
//
// Examples:
//
//	go run ./cmd/fleetsim -n 2,16 -dur 60s         # quick look
//	go run ./cmd/fleetsim -fq                      # DRR fair-queue bottleneck
//	go run ./cmd/fleetsim -n 256 -per-flow         # every flow's numbers
//	go run ./cmd/fleetsim -churn -smoke            # CI churn soak
//	go run ./cmd/fleetsim -churn -shards 4 -smoke  # sharded-lifecycle soak
//	go run ./cmd/fleetsim -shards 4 -shard-crash -smoke   # failover soak
//	go run ./cmd/fleetsim -shard-crash -verify-shards 1,4 # failover determinism
//	go run ./cmd/fleetsim -n 256 -shards 8 -lean   # big fleet, flat heap
//	go run ./cmd/fleetsim -jain-floor 0.9          # exit 3 if any point under
//
// Exit status: 0 on success, 1 when a run's own check fails, 2 on usage
// errors, 3 when any point's Jain index falls below -jain-floor.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"modelcc/internal/experiments"
	"modelcc/internal/units"
)

func main() {
	ns := flag.String("n", "", "comma-separated fleet sizes (default 2,4,16,64,256; churn default 4,16,64)")
	dur := flag.Duration("dur", 120*time.Second, "virtual duration per run")
	seed := flag.Int64("seed", 1, "simulation seed")
	alpha := flag.Float64("alpha", 1, "cross-traffic priority α for every member")
	rate := flag.Float64("rate", 6000, "per-sender fair share in bits/s (link = N × rate)")
	fq := flag.Bool("fq", false, "DRR fair-queue bottleneck instead of tail-drop FIFO")
	workers := flag.Int("workers", 0, "shared rollout pool width (0 = GOMAXPROCS, 1 = serial); results are identical for any value")
	perFlow := flag.Bool("per-flow", false, "print every flow's throughput/delay/drops (fairness mode)")
	noCache := flag.Bool("no-cache", false, "disable the fleet-wide shared policy cache (fairness mode)")
	jainFloor := flag.Float64("jain-floor", 0, "exit 3 when any point's Jain index is below this floor (fairness sweep and every churn or shard-fault run)")
	shards := flag.Int("shards", runtime.NumCPU(), "parallel DES shards per fleet (0 = single-loop fleet; 1 under -shard-crash/-shard-stall, which have no single-loop form); results are bit-identical for any count >= 1")
	lean := flag.Bool("lean", false, "streaming statistics only: no per-packet series, flat heap at large N")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")

	churn := flag.Bool("churn", false, "churn mode: supervised lifecycle run instead of a steady fairness sweep")
	epoch := flag.Duration("epoch", 10*time.Second, "churn decision period")
	depart := flag.Float64("depart", 0.04, "per-member per-epoch departure probability")
	crash := flag.Float64("crash", 0.06, "per-member per-epoch crash probability")
	arrive := flag.Float64("arrive", 0.5, "per-open-slot per-epoch arrival probability")
	noCkpt := flag.Bool("no-ckpt", false, "disable checkpoints: every restart cold instead of warm")
	ckptDir := flag.String("checkpoint-dir", "", "mirror member checkpoints to this directory")
	smoke := flag.Bool("smoke", false, "small fast churn soak for CI (overrides -n and -dur)")
	jsonOut := flag.String("json", "", "also write the results (fairness sweep or churn points) as JSON to this file")
	shardCrash := flag.Bool("shard-crash", false, "sharded runtime: arm the deterministic shard-kill schedule (whole virtual shards fail over at barriers)")
	shardStall := flag.Bool("shard-stall", false, "sharded runtime: arm the deterministic stall schedule (stalled shards serve degraded)")
	windowBudget := flag.Duration("window-budget", 0, "sharded runtime: wall-clock watchdog budget per coupling window (0 off; nondeterministic)")
	verifyShards := flag.String("verify-shards", "", "comma-separated shard counts to re-run every point at; fail unless replay hashes agree")
	flag.Parse()

	stopProf, err := startProfiling(*cpuprofile, *memprofile, *traceFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
		os.Exit(2)
	}
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	sizes, err := parseSizes(*ns)
	if err == nil {
		err = checkRanges(*dur, *epoch, *rate, *alpha, *depart, *crash, *arrive)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
		exit(2)
	}

	// The churn path only goes sharded when -shards is set explicitly:
	// the default churn mode is the supervised single-loop lifecycle
	// (checkpoints, warm restarts), which the barrier-aligned sharded
	// lifecycle intentionally does not reproduce.
	shardsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})

	faultMode := *shardCrash || *shardStall || *windowBudget > 0 || *verifyShards != ""
	if *churn || faultMode {
		sharded, k, err := resolveLifecycle(faultMode, shardsSet, *shards, *lean, *jainFloor)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: %v\n", err)
			exit(2)
		}
		if sharded {
			runShardChurn(shardChurnOpts{
				sizes: sizes, dur: *dur, seed: *seed, shards: k, workers: *workers,
				fq: *fq, lean: *lean,
				churn: *churn || !faultMode,
				epoch: *epoch, depart: *depart, crash: *crash, arrive: *arrive,
				noCkpt: *noCkpt, ckptDir: *ckptDir,
				shardCrash: *shardCrash, shardStall: *shardStall,
				windowBudget: *windowBudget, verifyShards: *verifyShards,
				smoke: *smoke, jsonOut: *jsonOut, jainFloor: *jainFloor, exit: exit,
			})
		} else {
			runChurn(churnOpts{
				sizes: sizes, dur: *dur, seed: *seed, workers: *workers, fq: *fq,
				epoch: *epoch, depart: *depart, crash: *crash, arrive: *arrive,
				noCkpt: *noCkpt, ckptDir: *ckptDir, smoke: *smoke,
				jsonOut: *jsonOut, jainFloor: *jainFloor, exit: exit,
			})
		}
		exit(0)
	}

	if len(sizes) == 0 {
		sizes = []int{2, 4, 16, 64, 256}
	}
	start := time.Now()
	res := experiments.FairnessSweep(experiments.FairnessConfig{
		Ns:            sizes,
		Duration:      *dur,
		Seed:          *seed,
		Alpha:         *alpha,
		PerSenderRate: units.BitRate(*rate),
		FairQueue:     *fq,
		Workers:       *workers,
		NoSharedCache: *noCache,
		Shards:        *shards,
		LeanStats:     *lean,
	})
	fmt.Print(res.Render())
	fmt.Printf("(%v wall)\n", time.Since(start).Round(time.Millisecond))
	writeJSON(*jsonOut, res, exit)

	if *perFlow {
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
	checkJainFloor(jains, *jainFloor, exit)
	exit(0)
}

// checkRanges refuses numeric flags outside their domain — a negative
// -dur would run a zero-length sweep and exit 0, a non-positive -rate
// would silently become the default. A non-nil error is a usage error.
func checkRanges(dur, epoch time.Duration, rate, alpha, depart, crash, arrive float64) error {
	prob := func(p float64) bool { return p >= 0 && p <= 1 }
	for _, c := range []struct {
		ok   bool
		flag string
		v    any
		want string
	}{
		{dur > 0, "-dur", dur, "must be positive"},
		{epoch > 0, "-epoch", epoch, "must be positive"},
		{rate > 0, "-rate", rate, "must be positive"},
		{alpha >= 0, "-alpha", alpha, "must not be negative"},
		{prob(depart), "-depart", depart, "must be a probability in [0, 1]"},
		{prob(crash), "-crash", crash, "must be a probability in [0, 1]"},
		{prob(arrive), "-arrive", arrive, "must be a probability in [0, 1]"},
	} {
		if !c.ok {
			return fmt.Errorf("%s %v: %s", c.flag, c.v, c.want)
		}
	}
	return nil
}

// startProfiling arms the requested CPU profile / heap profile /
// execution trace. The returned stop function finishes all three; call
// it before every process exit.
func startProfiling(cpu, mem, tr string) (stop func(), err error) {
	var cpuF, trF *os.File
	if cpu != "" {
		if cpuF, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			return nil, err
		}
	}
	if tr != "" {
		if trF, err = os.Create(tr); err != nil {
			return nil, err
		}
		if err = trace.Start(trF); err != nil {
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if trF != nil {
			trace.Stop()
			trF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleetsim: heap profile: %v\n", err)
			}
		}
	}, nil
}

// resolveLifecycle decides which lifecycle driver a -churn or
// shard-fault command line runs and at what shard count, so that a flag
// means in these modes what it means in a fairness sweep or the
// combination is refused. shardsSet is whether -shards was given at
// all: the default churn mode is the supervised single-loop lifecycle,
// and only an explicit positive -shards (or a fault flag, which has no
// single-loop form) selects the barrier-aligned sharded one. A non-nil
// error is a usage error.
func resolveLifecycle(faultMode, shardsSet bool, shards int, lean bool, jainFloor float64) (sharded bool, k int, err error) {
	if jainFloor > 0 && lean {
		return false, 0, fmt.Errorf("-jain-floor needs the per-packet series -lean drops: a lean lifecycle run has no Jain index to hold to a floor")
	}
	sharded = faultMode || (shardsSet && shards > 0)
	if sharded && shards < 1 {
		// Zero means "no sharding"; it must not reach
		// shard.ResolveShards, where it means one shard per CPU.
		shards = 1
	}
	return sharded, shards, nil
}

type shardChurnOpts struct {
	sizes                  []int
	dur                    time.Duration
	seed                   int64
	shards, workers        int
	fq, lean               bool
	churn                  bool
	epoch                  time.Duration
	depart, crash, arrive  float64
	noCkpt                 bool
	ckptDir                string
	shardCrash, shardStall bool
	windowBudget           time.Duration
	verifyShards           string
	smoke                  bool
	jsonOut                string
	jainFloor              float64
	exit                   func(int)
}

// runShardChurn is the lifecycle mode on the sharded runtime: the
// barrier-aligned churn lifecycle and/or the deterministic shard-fault
// schedule, with barrier checkpoints arming the hot/warm/cold restart
// ladder. The replay hash is invariant across shard counts (except
// under -window-budget, whose wall-clock verdicts are inherently
// nondeterministic).
func runShardChurn(o shardChurnOpts) {
	sizes, dur := o.sizes, o.dur
	if o.smoke {
		sizes = []int{8}
		dur = 60 * time.Second
	} else if len(sizes) == 0 {
		sizes = []int{4, 16, 64}
	}
	base := experiments.ShardChurnConfig{
		Shards: o.shards, Duration: dur, Seed: o.seed,
		Epoch: o.epoch, DepartProb: o.depart, CrashProb: o.crash, ArriveProb: o.arrive,
		FairQueue: o.fq, Workers: o.workers, LeanStats: o.lean,
		NoChurn:     !o.churn,
		Checkpoints: !o.noCkpt, CheckpointDir: o.ckptDir,
		WindowBudget: o.windowBudget,
	}
	if o.shardCrash {
		base.ShardKillProb = 0.3
	}
	if o.shardCrash || o.shardStall {
		base.ShardStallProb = 0.25
	}
	if o.noCkpt {
		base.CheckpointDir = ""
	}

	verify, err := parseSizes(o.verifyShards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: -verify-shards: %v\n", err)
		o.exit(2)
	}
	if len(verify) > 0 && o.windowBudget > 0 {
		fmt.Fprintln(os.Stderr, "fleetsim: -verify-shards cannot run under -window-budget (wall-clock verdicts are nondeterministic)")
		o.exit(2)
	}

	start := time.Now()
	var points []experiments.ShardChurnResult
	for _, n := range sizes {
		cfg := base
		cfg.N = n
		p := experiments.RunShardChurn(cfg)
		points = append(points, p)
		for _, k := range verify {
			if k == p.Cfg.Shards {
				continue
			}
			alt := base
			alt.N, alt.Shards = n, k
			if got := experiments.RunShardChurn(alt); got.ReplayHash != p.ReplayHash {
				fmt.Fprintf(os.Stderr, "fleetsim: N=%d replay hash diverges across shard counts: shards=%d %016x vs shards=%d %016x\n",
					n, p.Cfg.Shards, p.ReplayHash, k, got.ReplayHash)
				o.exit(1)
			}
		}
	}
	fmt.Print(experiments.RenderShardChurn(points))
	if len(verify) > 0 {
		fmt.Printf("replay hashes verified bit-identical across shards=%v\n", verify)
	}
	fmt.Printf("(%v wall)\n", time.Since(start).Round(time.Millisecond))
	for _, p := range points {
		if o.churn && p.Stats.Crashes+p.Stats.Departures+p.Stats.Arrivals == 0 {
			fmt.Fprintf(os.Stderr, "fleetsim: N=%d sharded churn produced no lifecycle events\n", p.Cfg.N)
			o.exit(1)
		}
		if o.shardCrash && p.Failover.ShardKills == 0 {
			fmt.Fprintf(os.Stderr, "fleetsim: N=%d shard-crash schedule produced no kills\n", p.Cfg.N)
			o.exit(1)
		}
		if (o.shardCrash || o.shardStall) && p.Failover.Stalls == 0 {
			fmt.Fprintf(os.Stderr, "fleetsim: N=%d stall schedule produced no stalls\n", p.Cfg.N)
			o.exit(1)
		}
		if p.Stats.CheckpointErrors > 0 {
			fmt.Fprintf(os.Stderr, "fleetsim: N=%d saw %d checkpoint errors\n", p.Cfg.N, p.Stats.CheckpointErrors)
			o.exit(1)
		}
	}
	writeJSON(o.jsonOut, points, o.exit)
	var jains []float64
	for _, p := range points {
		jains = append(jains, p.Jain)
	}
	checkJainFloor(jains, o.jainFloor, o.exit)
}

type churnOpts struct {
	sizes                 []int
	dur                   time.Duration
	seed                  int64
	workers               int
	fq                    bool
	epoch                 time.Duration
	depart, crash, arrive float64
	noCkpt                bool
	ckptDir               string
	smoke                 bool
	jsonOut               string
	jainFloor             float64
	exit                  func(int)
}

// writeJSON writes v, indented, to path; an empty path means no JSON
// was asked for.
func writeJSON(path string, v any, exit func(int)) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: writing %s: %v\n", path, err)
		exit(1)
	}
}

func runChurn(o churnOpts) {
	sizes := o.sizes
	dur := o.dur
	if o.smoke {
		// One small fast point: enough churn to exercise teardown,
		// restart, and recycling under -race within a CI timeout.
		sizes = []int{8}
		dur = 60 * time.Second
	} else if len(sizes) == 0 {
		sizes = []int{4, 16, 64}
	}
	start := time.Now()
	res := experiments.ChurnSweep(experiments.ChurnSweepConfig{
		Ns: sizes,
		Base: experiments.ChurnConfig{
			Duration:      dur,
			Seed:          o.seed,
			Epoch:         o.epoch,
			DepartProb:    o.depart,
			CrashProb:     o.crash,
			ArriveProb:    o.arrive,
			Workers:       o.workers,
			FairQueue:     o.fq,
			NoCheckpoints: o.noCkpt,
			CheckpointDir: o.ckptDir,
		},
	})
	fmt.Print(res.Render())
	fmt.Printf("(%v wall)\n", time.Since(start).Round(time.Millisecond))

	for _, p := range res.Points {
		if p.CheckpointErrors > 0 {
			fmt.Fprintf(os.Stderr, "fleetsim: N=%d saw %d checkpoint errors\n", p.Cfg.N, p.CheckpointErrors)
			o.exit(1)
		}
	}
	writeJSON(o.jsonOut, res.Points, o.exit)
	var jains []float64
	for _, p := range res.Points {
		jains = append(jains, p.Jain)
	}
	checkJainFloor(jains, o.jainFloor, o.exit)
}

// checkJainFloor exits with status 3 when any point's fairness fell
// below the requested floor — the CI tripwire for fairness
// regressions.
func checkJainFloor(jains []float64, floor float64, exit func(int)) {
	if floor <= 0 {
		return
	}
	for i, j := range jains {
		if j < floor {
			fmt.Fprintf(os.Stderr, "fleetsim: point %d Jain %.4f below floor %.4f\n", i, j, floor)
			exit(3)
		}
	}
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
