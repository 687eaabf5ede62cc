package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"modelcc/internal/experiments"
	"modelcc/internal/fleet"
	"modelcc/internal/planner"
	"modelcc/internal/policy"
	"modelcc/internal/shard"
)

// params is everything a workload run depends on. seed is the only
// input to the generated configuration; scale multiplies every virtual
// window by one common factor (1 at the -seconds the windows were
// calibrated for, refSeconds).
type params struct {
	seed   int64
	scale  float64
	traced bool
	// delayUpdate and delayProbe are busy-waits selftest injects into
	// the belief and table decorators (traced runs only).
	delayUpdate, delayProbe time.Duration
	// spans is where a traced run writes its spans; empty: nowhere.
	spans string
	// workDir holds files a workload writes (the compiled table).
	workDir string
	// corrupt damages every reference digest (tests only).
	corrupt bool
}

// refSeconds is the -seconds value at which scale is 1: on the host the
// windows were calibrated on, every workload's repeats then add up to a
// little over 20 s of timed wall time.
const refSeconds = 20

// The virtual windows at scale 1. They are absolute intervals, not
// durations: a fleet member's support grows by about 0.9 hypotheses per
// virtual second, so a virtual second late in a run costs several times
// one early in it, and only the same interval is the same work.
//
// Every window is run several times over (the repeats below), because
// on a shared host one reading of a 20 s window swings by a tenth or
// more from run to run: each unit of the window's work is timed in
// every repeat, brought to the reference host speed (ref.go), and its
// median is what counts (see robustTotal).
const (
	fig3Duration = 300 * time.Second // the paper's run; Fig3Claims needs all of it
	fig3Passes   = 4                 // timed passes of 8 runs each

	fleetN       = 256
	fleetWarm    = 10 * time.Second
	fleetEnd     = 23 * time.Second
	fleetRepeats = 3

	shardN    = 1024
	shardK    = 1 // the timed runs: one busy goroutine, like every workload
	shardWide = 2 // what the traced run compares them with
	shardWarm = 6 * time.Second
	shardEnd  = 12 * time.Second

	serveN       = 256
	serveReplay  = 16 * time.Second
	serveReplays = 30
)

// fig3TruthSeeds are the ground-truth seeds of fig3-solo, whatever
// -seed is. The truth draws its last-mile losses from them, and how
// soon the thousands-strong prior collapses under those draws decides a
// run's cost: over seeds 1..12 the α ≥ 2.5 runs take 0.13 s or 0.9 s,
// one seed in four the slow way, so a pass over any two seeds varies by
// a third from pair to pair and no affordable number of seeds averages
// that to within the bounds. The pair is the default -seed and its
// successor, the seeds the claims are asserted at.
var fig3TruthSeeds = []int64{defaultSeed, defaultSeed + 1}

// ref returns the reference digest d as the gates should see it:
// damaged, when a test wants to see every gate fire.
func (p params) ref(d uint64) uint64 {
	if p.corrupt {
		return d ^ 1
	}
	return d
}

// check is one correctness gate's verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

func gate(name string, err error) check {
	if err != nil {
		return check{name: name, detail: err.Error()}
	}
	return check{name: name, ok: true}
}

// repeats holds the host time of work run several times over: wall[r][u]
// is what unit u took in repeat r, at the reference host speed.
type repeats struct{ wall, cpu [][]float64 }

func (t *repeats) add(wall, cpu []float64) {
	t.wall = append(t.wall, wall)
	t.cpu = append(t.cpu, cpu)
}

// robustTotal is the time one repeat takes when nothing disturbs it:
// the sum over units of each unit's median across repeats. A neighbour
// on the host slows whichever unit is running for a second or two; with
// three or more repeats a slowed reading is outvoted by the readings of
// the same unit in the other repeats.
func robustTotal(t [][]float64) float64 {
	var total float64
	for u := range t[0] {
		col := make([]float64, len(t))
		for r := range t {
			col[r] = t[r][u]
		}
		total += median(col)
	}
	return total
}

// report is what one workload run produced.
type report struct {
	setupS float64
	// The repeats reported on: all of them, or in a traced run the
	// traced ones. out is the outcome of one repeat (the gates hold
	// every repeat to it) and pooled the sum over the repeats; cost sums
	// their host cost; times holds each one's unit readings.
	out, pooled outcome
	reps        int
	cost        hostCost // as read, not at the reference speed
	times       repeats
	latencies   [][]int64  // per repeat
	slow        []slowdown // per repeat, the host's during it
	checks      []check
	notes       []string
	layers      map[string]float64 // traced runs only
}

// addRepeat takes one repeat's readings: wall and cpu at the reference
// speed already, cost and lat as read.
func (rep *report) addRepeat(cost hostCost, out outcome, wall, cpu []float64, lat []int64, slow slowdown) {
	rep.reps++
	rep.cost.add(cost)
	addOutcome(&rep.pooled, out)
	rep.times.add(wall, cpu)
	rep.latencies = append(rep.latencies, lat)
	rep.slow = append(rep.slow, slow)
}

type workload struct {
	name, why string
	run       func(params) (*report, error)
}

var workloads = []workload{
	{"fig3-solo", "one exact-belief sender over the full prior: the only workload with a thousands-strong support, belief.Update and planner.Decide both large", runFig3Solo},
	{"fleet-256", "256 senders on one loop with a cold shared cache: four decisions in five miss, so planner.Decide dominates", runFleet256},
	{"shard-1024", "1024 senders on the windowed shard coordinator, canonical order, striped cache, lean statistics: the decision path at four times the fleet, one busy goroutine", runShard1024},
	{"serve-256", "the fleet-256 decision path served from a compiled table: no live planning, belief.Update and the table probe remain", runServe256},
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// tracedRepeat reports whether repeat i of a traced run is traced: the
// first third of the repeats stays untraced, as the reference the
// traced ones are held to (same outcome, same digest) and costed
// against (trace.overhead_frac).
func tracedRepeat(p params, i, reps int) bool {
	ref := reps / 3
	if ref < 1 {
		ref = 1
	}
	return p.traced && i >= ref
}

// overhead is traced wall time over untraced wall time, less one, from
// the unit readings of the traced and the untraced repeats. Each side
// is the sum of its units' fastest readings: there may be only one or
// two untraced repeats, too few for a median to outvote a disturbed
// reading, and the fastest reading of a unit is the least disturbed.
func overhead(traced, untraced [][]float64) float64 {
	best := func(t [][]float64) float64 {
		var total float64
		for u := range t[0] {
			m := t[0][u]
			for r := range t {
				m = math.Min(m, t[r][u])
			}
			total += m
		}
		return total
	}
	return best(traced)/best(untraced) - 1
}

// ---- fig3-solo ----

func runFig3Solo(p params) (*report, error) {
	rep := &report{}
	// Below scale 1 the passes shrink to one and then the runs shorten;
	// Fig3Claims is only meaningful on the paper's full 300 s.
	virt := float64(fig3Passes) * p.scale
	passes := int(virt)
	duration := fig3Duration
	if passes < 1 {
		passes = 1
		duration = scaled(fig3Duration, virt)
	}
	var cfgs []experiments.ISenderConfig
	for _, s := range fig3TruthSeeds {
		for _, a := range experiments.Fig3Alphas {
			cfgs = append(cfgs, experiments.Fig3Config(a, s, duration))
		}
	}

	type pass struct {
		out       outcome
		runs      []soloRun
		cost      hostCost
		slow      slowdown
		wall, cpu []float64 // per configuration, at the reference speed
		lat       []int64
	}
	// One pass is the eight configurations in order; each is a unit.
	runPass := func(workers int, traced bool) pass {
		var ps pass
		sw := begin()
		for i, cfg := range cfgs {
			var rec *recorder
			if traced {
				rec = &recorder{flow: uint32(i), wake: -1, epoch: sw.t0, delayUpdate: p.delayUpdate}
			}
			sw.sampleRef()
			t0, c0 := sw.elapsed()
			r := runSolo(cfg, workers, rec, traced)
			t1, c1 := sw.elapsed()
			ps.wall = append(ps.wall, t1-t0)
			ps.cpu = append(ps.cpu, c1-c0)
			addOutcome(&ps.out, r.out)
			ps.runs = append(ps.runs, r)
			ps.lat = append(ps.lat, r.latencies...)
		}
		sw.sampleRef()
		ps.cost = sw.end()
		ps.slow = sw.slowdown()
		for u := range ps.wall {
			ps.wall[u] /= ps.slow.wall
			ps.cpu[u] /= ps.slow.cpu
		}
		return ps
	}

	// Set-up: one untimed pass that warms the rollout pools and the heap
	// and is the reference for the rest, and the check of its α = 1 run
	// against the repository's own driver.
	warm := runPass(1, false)
	rep.checks = append(rep.checks, gate("driver matches experiments.RunISender", matchesRunISender(cfgs[1], warm.runs[1].res)))
	rep.setupS = time.Since(processStart).Seconds() / warm.slow.wall
	rep.out = warm.out

	// Every later pass must equal the warm-up pass.
	var identical error
	want := warm.out
	if p.corrupt {
		want.Wakes ^= 1
	}
	hold := func(label string, ps pass) {
		if err := sameOutcome(want, ps.out); err != nil && identical == nil {
			identical = fmt.Errorf("%s differs from the warm-up pass: %w", label, err)
		}
	}
	// A traced run times one more untraced pass first; with the warm-up
	// pass, those are the untraced readings of every unit.
	untracedUnits := [][]float64{warm.wall}
	if p.traced {
		ref := runPass(1, false)
		hold("the untraced pass", ref)
		untracedUnits = append(untracedUnits, ref.wall)
	}
	var recs []*recorder
	var lastPass pass
	for i := 1; i <= passes; i++ {
		ps := runPass(1, p.traced)
		hold(fmt.Sprintf("pass %d", i), ps)
		rep.addRepeat(ps.cost, ps.out, ps.wall, ps.cpu, ps.lat, ps.slow)
		if p.traced {
			for _, r := range ps.runs {
				recs = append(recs, r.rec)
			}
		}
		lastPass = ps
	}
	rep.checks = append(rep.checks, gate("passes bit-identical", identical))

	if duration == fig3Duration {
		var fr experiments.Fig3Result
		for i, a := range experiments.Fig3Alphas {
			fr.Alphas = append(fr.Alphas, a)
			fr.Runs = append(fr.Runs, warm.runs[i].res)
		}
		text, ok := experiments.Fig3Claims(fr)
		c := check{name: "experiments.Fig3Claims", ok: ok}
		if !ok {
			c.detail = text
		}
		rep.checks = append(rep.checks, c)
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("Fig3Claims skipped: runs are %v, the claims need %v", duration, fig3Duration))
	}

	if p.traced {
		w2 := runPass(2, true)
		rep.checks = append(rep.checks, gate("Workers: 2 pass bit-identical", sameOutcome(warm.out, w2.out)))
		var samples []sample
		var fill float64
		for _, r := range lastPass.runs {
			samples = append(samples, r.sampled)
			fill += r.fillFrac / float64(len(lastPass.runs))
		}
		// Support over a solo run: the prior at the start, the
		// posterior at the end; growth is their difference per second.
		sup := warm.runs[0].res.SupportSize.Pts
		lay := layerInput{
			recs: recs, cost: rep.cost, out: rep.pooled, samples: samples,
			members: 1, plan: cfgs[0].Plan,
			supStart: sup[0].V, supEnd: sup[len(sup)-1].V, supWindow: duration.Seconds(),
			overhead:  overhead(rep.times.wall, untracedUnits),
			fillEnd:   fill,
			guardLive: rep.pooled.Decisions,
		}
		lay.plan.Util = cfgs[0].Utility
		rep.layers = layerMetrics(lay)
		rep.layers["rollout.w2_speedup"] = robustTotal(rep.times.wall) / (w2.cost.wall / w2.slow.wall)
		rep.layers["rollout.w2_cpu_ratio"] = w2.cost.cpu / w2.slow.cpu / robustTotal(rep.times.cpu)
		if err := maybeWriteSpans(p, recs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ---- fleet-256 and shard-1024 ----

func fleetConfig(n int, seed int64) fleet.Config {
	return fleet.Config{N: n, Seed: seed, Workers: 1}
}

// tally is the bookkeeping the repeats of one fleet window share: every
// repeat must conserve packets and end on the first one's digest and
// outcome, traced or not; untraced repeats of a traced run are only the
// reference, the others are what the report is made of.
type tally struct {
	first, last   *windowRun
	runs          []*windowRun // the repeats reported on
	identical     error
	untracedUnits [][]float64 // unit wall readings of the reference repeats
}

func (t *tally) add(rep *report, p params, traced bool, w *windowRun) {
	i := len(t.runs) + len(t.untracedUnits)
	if t.first == nil {
		t.first = w
		rep.out = w.out
	}
	t.last = w
	switch {
	case t.identical != nil:
	case w.conserved != nil:
		t.identical = fmt.Errorf("repeat %d: %w", i, w.conserved)
	case i > 0 && p.ref(t.first.digest) != w.digest:
		t.identical = fmt.Errorf("repeat %d digest %016x, repeat 0 %016x", i, w.digest, t.first.digest)
	default:
		if err := sameOutcome(t.first.out, w.out); err != nil {
			t.identical = fmt.Errorf("repeat %d: %w", i, err)
		}
	}
	wall, cpu := w.units()
	if p.traced && !traced {
		t.untracedUnits = append(t.untracedUnits, wall)
		return
	}
	rep.addRepeat(w.cost, w.out, wall, cpu, w.latencies, w.slow)
	t.runs = append(t.runs, w)
}

// close records the identity gate and the digest.
func (t *tally) close(rep *report, end time.Duration) {
	rep.checks = append(rep.checks,
		gate("per flow, injected = delivered + dropped + in flight; repeats bit-identical, traced or not", t.identical))
	rep.notes = append(rep.notes, fmt.Sprintf("digest %016x at %v, every repeat", t.first.digest, end))
}

// runRepeats runs one fleet window fleetRepeats times, each on a fresh
// runtime from build, and returns the tally and the last runtime.
func runRepeats(rep *report, p params, build func() *host, warm, end, snap time.Duration) (*tally, *host) {
	t := &tally{}
	var h *host
	var setups []float64
	for i := 0; i < fleetRepeats; i++ {
		q := p
		q.traced = tracedRepeat(p, i, fleetRepeats)
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		h = build()
		w := runFleetWindow(h, q, nil, warm, end, snap, false)
		setups = append(setups, w.opened.Sub(t0).Seconds()/w.slow.wall)
		t.add(rep, p, q.traced, w)
	}
	// Every repeat sets up from scratch, so set-up time is a median too.
	rep.setupS = median(setups)
	t.close(rep, end)
	return t, h
}

func allRecorders(runs []*windowRun) []*recorder {
	var recs []*recorder
	for _, w := range runs {
		recs = append(recs, w.recs...)
	}
	return recs
}

func runFleet256(p params) (*report, error) {
	warm, end := scaled(fleetWarm, p.scale), scaled(fleetEnd, p.scale)
	rep := &report{}
	var buildS float64
	build := func() *host {
		t0 := time.Now()
		fl := fleet.New(fleetConfig(fleetN, p.seed))
		buildS = time.Since(t0).Seconds()
		fl.Start()
		return fleetHost(fl)
	}
	t, h := runRepeats(rep, p, build, warm, end, 0)
	if p.traced {
		rep.layers = fleetLayers(rep, h, t, buildS)
		if err := maybeWriteSpans(p, allRecorders(t.runs)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func shardConfig(seed int64, warm time.Duration, k int) shard.Config {
	fc := fleetConfig(shardN, seed)
	fc.LeanStats = true
	fc.LeanRateFrom = warm
	// Workers is the total rollout budget: one worker per shard.
	fc.Workers = k
	return shard.Config{Fleet: fc, Shards: k}
}

func runShard1024(p params) (*report, error) {
	rep := &report{}
	// Window edges sit on the coordinator's Δ grid, so that slicing the
	// window never shortens one of its coupling rounds.
	delta := shard.New(shardConfig(p.seed, 0, shardK)).Delta
	snap := func(d time.Duration) time.Duration { return (scaled(d, p.scale) + delta/2) / delta * delta }
	warm, end := snap(shardWarm), snap(shardEnd)

	var buildS float64
	// shard.Fleet attaches its members on its first Run.
	newShard := func(k int) *host {
		t0 := time.Now()
		sf := shard.New(shardConfig(p.seed, warm, k))
		sf.Run(0)
		buildS = time.Since(t0).Seconds()
		return shardHost(sf)
	}
	t, h := runRepeats(rep, p, func() *host { return newShard(shardK) }, warm, end, delta)
	rep.notes = append(rep.notes, fmt.Sprintf("K=%d, Δ=%v", shardK, delta))

	if p.traced {
		rep.layers = fleetLayers(rep, h, t, buildS)
		// The shard speed-up and the coordinator's cost come from two
		// more traced runs over the window's first third: two shards, and
		// the single loop that reproduces a sharded run bit for bit. Two
		// shards are two busy goroutines on a host that may have one
		// processor to spare, so their wall time is reported here, where
		// nothing is bounded, and not end to end.
		k1 := t.last
		k2 := runFleetWindow(newShard(shardWide), p, nil, warm, end, delta, true)
		fc := shardConfig(p.seed, warm, 1).Fleet
		fc.Canonical = true
		fc.CacheStripes = planner.DefaultCacheStripes
		fl := fleet.New(fc)
		fl.Start()
		single := runFleetWindow(fleetHost(fl), p, nil, warm, end, delta, true)

		var derr error
		if p.ref(k2.refDigest) != k1.refDigest || single.refDigest != k1.refDigest {
			derr = fmt.Errorf("K=2 %016x, K=1 %016x, single loop %016x", k2.refDigest, k1.refDigest, single.refDigest)
		}
		rep.checks = append(rep.checks, gate("K=2, K=1 and single-loop digests equal", derr))
		// The three ran at different times: compare them at the
		// reference host speed.
		at := k1.marks[refSlice]
		rep.layers["shard.window_grid_per_vsec"] = 1 / delta.Seconds()
		rep.layers["shard.coord_cpu_s_per_vsec"] = (at.cpu/k1.slow.cpu - single.cost.cpu/single.slow.cpu) / k1.refOut.VSec
		rep.layers["shard.k2_speedup"] = (at.wall / k1.slow.wall) / (k2.cost.wall / k2.slow.wall)
		rep.layers["shard.parallel_eff"] = k2.cost.cpu / (shardWide * k2.cost.wall)
		if derr == nil {
			rep.layers["shard.digest_match"] = 1
		}
		if err := maybeWriteSpans(p, allRecorders(t.runs)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// ---- serve-256 ----

func runServe256(p params) (*report, error) {
	rep := &report{}
	replay := scaled(serveReplay, p.scale)
	fc := fleetConfig(serveN, p.seed)

	// Set-up: compile the table from one live replay, write it, map it,
	// verify it, with the reference kernel timed before, between and after.
	setupRefs := []slowdown{sampleSlowdown()}
	t0 := time.Now()
	hdr, recs, _, err := policy.Compile(policy.CompileConfig{
		Fleet: fc, Seeds: []int64{p.seed}, Duration: replay, Note: "cmd/bench serve-256",
	})
	if err != nil {
		return nil, fmt.Errorf("serve-256: %w", err)
	}
	compileS := time.Since(t0).Seconds()
	setupRefs = append(setupRefs, sampleSlowdown())
	t0 = time.Now()
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve-256: %w", err)
	}
	path := filepath.Join(p.workDir, fmt.Sprintf("serve-256-%d-%d.tbl", p.seed, os.Getpid()))
	if err := policy.WriteTable(path, hdr, recs); err != nil {
		return nil, fmt.Errorf("serve-256: %w", err)
	}
	defer os.Remove(path)
	table, err := policy.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve-256: %w", err)
	}
	defer table.Close()
	rep.checks = append(rep.checks, gate("Table.Verify", table.Verify()))
	wovS := time.Since(t0).Seconds()
	srv := policy.NewServer(table, nil)
	served := fc
	served.Table = srv
	setupRefs = append(setupRefs, sampleSlowdown())
	rep.setupS = time.Since(processStart).Seconds() / meanSlowdown(setupRefs).wall

	// Each replay is one repeat, its fleet built inside the window.
	t := &tally{}
	var h *host
	var buildS float64
	for i := 0; i < serveReplays; i++ {
		q := p
		q.traced = tracedRepeat(p, i, serveReplays)
		sw := begin()
		t0 := time.Now()
		fl := fleet.New(served)
		buildS += time.Since(t0).Seconds() / serveReplays
		fl.Start()
		h = fleetHost(fl)
		t.add(rep, p, q.traced, runFleetWindow(h, q, sw, 0, replay, 0, false))
	}
	t.close(rep, replay)
	rep.notes = append(rep.notes, fmt.Sprintf("table %d entries", table.Len()))

	probes, hits, _ := srv.Stats()
	var serr error
	if live := t.last.after.guards.live; probes == 0 || hits != probes || live != 0 {
		serr = fmt.Errorf("%d of %d probes hit the table, %d live decisions in the last replay", hits, probes, live)
	}
	rep.checks = append(rep.checks, gate("every decision a table hit", serr))

	// After the window, untimed: one replay planned live is the
	// reference a table-served replay must reproduce, member for member.
	fl := fleet.New(fc)
	fl.Run(replay)
	var uerr error
	for i, m := range fl.Members {
		if got := h.members()[i].Utility; got != m.Utility {
			uerr = fmt.Errorf("flow %d: utility %v served, %v planned live", i, got, m.Utility)
			break
		}
	}
	if uerr == nil && p.ref(shard.DigestFleet(fl)) != t.last.digest {
		uerr = fmt.Errorf("digest %016x served, %016x planned live", t.last.digest, shard.DigestFleet(fl))
	}
	rep.checks = append(rep.checks, gate("served replay equals live planning, member for member", uerr))

	if p.traced {
		rep.layers = fleetLayers(rep, h, t, buildS)
		rep.layers["policy.compile_s"] = compileS
		rep.layers["policy.write_open_verify_s"] = wovS
		rep.layers["policy.table_entries"] = float64(table.Len())
		rep.layers["policy.lookup_ns"] = microLookup(table)
		if err := maybeWriteSpans(p, allRecorders(t.runs)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func maybeWriteSpans(p params, recs []*recorder) error {
	if p.spans == "" {
		return nil
	}
	return writeSpans(p.spans, recs)
}
