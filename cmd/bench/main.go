package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"modelcc/internal/stats"
)

const defaultSeed = 42

// Thresholds bench trace enforces on itself.
const (
	maxOverheadFrac   = 0.10
	minAttributedFrac = 0.85
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args, false)
	case "trace":
		err = cmdRun(args, true)
	case "selftest":
		err = cmdSelftest(args)
	case "diff":
		err = cmdDiff(args, os.Stdout)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: bench <command> [flags]

  run      -workload <name> [-seed n] [-seconds s] [-trace 0|1] [-out runs.jsonl]
           end-to-end metrics, tracing off (-trace 1: the per-layer table, reported only)
  trace    same flags; the per-layer table, failing unless tracing was neutral,
           cost under 10% and attributed at least 85% of CPU; writes -spans
  selftest proves the benchmark measures, by injecting a known delay
  diff     a.jsonl b.jsonl: compare two sets of runs against the bounds

workloads:
`)
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-11s %s\n", wl.name, wl.why)
	}
}

// runRecord is one run as -out appends it and diff reads it.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostFacts `json:"host"`
	Notes    []string  `json:"notes,omitempty"`
	result
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func cmdRun(args []string, strictTrace bool) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see bench help)")
	seed := fs.Int64("seed", defaultSeed, "the only input to the generated configurations")
	seconds := fs.Float64("seconds", refSeconds, "nominal timed wall seconds; scales every virtual window by seconds/20")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: tracing off, end-to-end metrics")
	out := fs.String("out", "", "append this run as one JSON line to the file")
	spans := fs.String("spans", filepath.Join(".bench_build", "trace.jsonl"), "where a traced run writes its spans (empty: nowhere)")
	profile := fs.String("cpuprofile", "", "write a CPU profile of the whole run, to check the layer shares against")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for files a workload writes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	traced := strictTrace || *trace != 0

	wl, err := findWorkload(*name)
	if err != nil {
		return err
	}

	host := hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), LoadBefore: loadavg(),
	}
	p := params{seed: *seed, scale: *seconds / refSeconds, traced: traced, workDir: *workDir}
	if traced {
		p.spans = *spans
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rep, err := wl.run(p)
	if err != nil {
		return err
	}
	host.LoadAfter = loadavg()
	var slowWall, slowCPU []float64
	for _, s := range rep.slow {
		slowWall, slowCPU = append(slowWall, s.wall), append(slowCPU, s.cpu)
	}
	host.SlowdownWall, host.SlowdownCPU = median(slowWall), median(slowCPU)

	rec := runRecord{Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: traced, Host: host, Notes: rep.notes}
	rec.result = summarize(rep, traced, strictTrace)
	printRun(os.Stdout, rec, rep)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: a correctness check failed", wl.name)
	}
	return nil
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (see bench help)", name)
}

// summarize turns a report into the result line. An operation is one
// sender wake; when any gate fails, every wake of the run counts as
// failed.
func summarize(rep *report, traced, strict bool) result {
	reps := int64(rep.reps)
	res := result{Correct: true, Attempted: rep.out.Wakes * reps, Failed: rep.out.Failed * reps, Metrics: map[string]metric{}}
	if traced && strict {
		lay := rep.layers
		rep.checks = append(rep.checks,
			gate("trace.overhead_frac below 0.10", boundErr(lay["trace.overhead_frac"] < maxOverheadFrac, lay["trace.overhead_frac"])),
			gate("trace.attributed_frac at least 0.85", boundErr(lay["trace.attributed_frac"] >= minAttributedFrac, lay["trace.attributed_frac"])))
	}
	for _, c := range rep.checks {
		if !c.ok {
			res.Correct = false
		}
	}
	if res.Attempted < 1 {
		res.Correct = false
		res.Attempted = 1
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if traced {
		for _, s := range perLayer {
			res.Metrics[s.Name] = metric{rep.layers[s.Name], s.Unit}
		}
		return res
	}
	values := endToEndValues(rep)
	for _, s := range endToEnd {
		res.Metrics[s.Name] = metric{values[s.Name], s.Unit}
	}
	return res
}

func boundErr(ok bool, got float64) error {
	if ok {
		return nil
	}
	return fmt.Errorf("measured %.4f", got)
}

// endToEndValues computes the twelve metrics. Host times are at the
// reference host speed: robust totals over the repeats, and for the
// decision percentiles the median over the repeats' own percentiles, so
// that one disturbed repeat does not set a number. The virtual-time
// metrics are one repeat's, every repeat being identical.
func endToEndValues(rep *report) map[string]float64 {
	o, c := rep.out, rep.cost
	var p50, p99 []float64
	for r, lat := range rep.latencies {
		slices.Sort(lat)
		p50 = append(p50, float64(percentile(lat, 0.50))/1e3/rep.slow[r].cpu)
		p99 = append(p99, float64(percentile(lat, 0.99))/1e3/rep.slow[r].cpu)
	}
	const mib = 1 << 20
	return map[string]float64{
		"setup_s":           rep.setupS,
		"wall_s_per_vsec":   robustTotal(rep.times.wall) / o.VSec,
		"cpu_s_per_vsec":    robustTotal(rep.times.cpu) / o.VSec,
		"decide_p50_us":     median(p50),
		"decide_p99_us":     median(p99),
		"peak_rss_mb":       c.peakRSSMiB,
		"alloc_mb_per_vsec": float64(c.allocBytes) / mib / float64(rep.reps) / o.VSec,
		"utility_per_vsec":  o.Utility / o.VSec,
		"goodput_frac":      o.DeliveredBits / o.LinkBits,
		"delay_mean_vms":    1e3 * o.DelaySum / float64(o.Acks),
		"drop_frac":         float64(o.Drops) / float64(o.Offered),
		"jain":              stats.JainIndex(o.PerFlow),
	}
}

func printRun(w io.Writer, rec runRecord, rep *report) {
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d %s  loadavg before [%s] after [%s]\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.LoadBefore, h.LoadAfter)
	if overloaded(h.LoadBefore, h.NProc) || overloaded(h.LoadAfter, h.NProc) {
		fmt.Fprintf(w, "WARNING: load average exceeds nproc=%d; host-time metrics are inflated\n", h.NProc)
	}
	fmt.Fprintf(w, "timed: %d repeats of %.3f virtual s, %.3f wall s (%.3f CPU s) in all as read\n",
		rep.reps, rep.out.VSec, rep.cost.wall, rep.cost.cpu)
	fmt.Fprintf(w, "host speed: the reference kernel took %.3f (wall) and %.3f (CPU) times its nominal %v; host times below are divided by that, repeat by repeat\n",
		h.SlowdownWall, h.SlowdownCPU, refNominal)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, c := range rep.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s\n", verdict, c.name)
		if c.detail != "" {
			fmt.Fprintf(w, "      %s\n", strings.ReplaceAll(strings.TrimSpace(c.detail), "\n", "\n      "))
		}
	}
	fmt.Fprintf(w, "operations (sender wakes): %d attempted, %d failed; %d decisions timed per repeat\n",
		rec.Attempted, rec.Failed, rep.out.Decisions)
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if m, ok := rec.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.6g %s\n", s.Name, m.Value, m.Unit)
		}
	}
}

func appendRecord(path string, rec runRecord) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	return err
}
