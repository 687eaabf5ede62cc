package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// The names, units, directions and bounds the program prints are
// exactly those BENCHMARK.json declares.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q, code %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, windows calibrated for %d", doc.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"cmd/bench"}) {
		t.Errorf("paths %v", doc.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	var haveSetup bool
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) {
			t.Errorf("metric %q unit %q: not a legal name or unit", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %q named twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" {
			haveSetup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !haveSetup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

// testScale is the share of the calibrated windows the tests run:
// 1/20, but 1/100 for fig3-solo, whose first wake over the full prior
// costs the same however short the run.
func testScale(workload string) float64 {
	if workload == "fig3-solo" {
		return 0.01
	}
	return 0.05
}

func testParams(t *testing.T, workload string, traced bool) params {
	return params{seed: defaultSeed, scale: testScale(workload), traced: traced, workDir: t.TempDir()}
}

// Every workload, traced and not, prints every declared metric with its
// declared unit, passes its own gates and fails no operation.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			mode := "run"
			if traced {
				mode = "trace"
			}
			t.Run(wl.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				p := testParams(t, wl.name, traced)
				if traced {
					p.spans = filepath.Join(p.workDir, "trace.jsonl")
				}
				rep, err := wl.run(p)
				if err != nil {
					t.Fatal(err)
				}
				res := summarize(rep, traced, false)
				for _, c := range rep.checks {
					if !c.ok {
						t.Errorf("check %q failed: %s", c.name, c.detail)
					}
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", s.Name)
					case m.Unit != s.Unit:
						t.Errorf("metric %s printed in %q, declared in %q", s.Name, m.Unit, s.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", s.Name, m.Value)
					case !traced && m.Value <= 0 && s.Name != "drop_frac":
						// No queue overflows in a window this short; at
						// the calibrated windows drop_frac is never 0.
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, m.Value)
					}
				}
				if traced {
					st, err := os.Stat(p.spans)
					if err != nil || st.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
			})
		}
	}
}

// With every reference digest damaged, each workload's identity gate
// fires, the run is incorrect, and every wake counts as failed.
func TestGatesFireOnCorruptDigest(t *testing.T) {
	const repeats = "per flow, injected = delivered + dropped + in flight; repeats bit-identical, traced or not"
	gates := map[string][]string{
		"fig3-solo":  {"passes bit-identical"},
		"fleet-256":  {repeats},
		"shard-1024": {repeats, "K=2, K=1 and single-loop digests equal"},
		"serve-256":  {repeats, "served replay equals live planning, member for member"},
	}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			// shard-1024 compares its three runtimes in the traced run.
			p := testParams(t, wl.name, wl.name == "shard-1024")
			p.corrupt = true
			rep, err := wl.run(p)
			if err != nil {
				t.Fatal(err)
			}
			res := summarize(rep, p.traced, false)
			if res.Correct || res.Failed != res.Attempted {
				t.Errorf("correct=%v, %d of %d operations failed; want all of them", res.Correct, res.Failed, res.Attempted)
			}
			failed := map[string]bool{}
			for _, c := range rep.checks {
				if !c.ok {
					failed[c.name] = true
				}
			}
			for _, g := range gates[wl.name] {
				if !failed[g] {
					t.Errorf("gate %q did not fire", g)
				}
			}
		})
	}
}

func TestRobustTotalOutvotesADisturbedReading(t *testing.T) {
	quiet := [][]float64{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	if got := robustTotal(quiet); got != 6 {
		t.Fatalf("robustTotal = %v, want 6", got)
	}
	disturbed := [][]float64{{1, 9, 3}, {1, 2, 3}, {7, 2, 3}}
	if got := robustTotal(disturbed); got != 6 {
		t.Errorf("robustTotal = %v, want 6: one slow reading per unit must not count", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestDiffVerdicts(t *testing.T) {
	write := func(name string, wall []float64) string {
		path := filepath.Join(t.TempDir(), name)
		for _, v := range wall {
			rec := runRecord{Workload: "fleet-256", result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metric{"wall_s_per_vsec": {v, "s/s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	steady := write("a", []float64{1.00, 1.01, 0.99, 1.00, 1.02})
	for _, tc := range []struct {
		name    string
		b       []float64
		verdict string
		fails   bool
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.02, 1.00}, " ok", false},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30, 1.32}, " worse", true},
		{"noisy", []float64{0.70, 1.40, 1.00, 0.60, 1.35}, " unresolved", true},
		{"noisy but every run faster", []float64{0.50, 0.90, 0.60, 0.95, 0.55}, " ok", false},
	} {
		var out strings.Builder
		err := cmdDiff([]string{steady, write("b", tc.b)}, &out)
		if (err != nil) != tc.fails {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if !strings.Contains(out.String(), tc.verdict+"\n") {
			t.Errorf("%s: want verdict%s in\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

// What the reference kernel costs stays out of the window it is sampled
// in: its time, and the allocations alloc_mb_per_vsec would otherwise
// count.
func TestReferenceKernelStaysOutOfTheWindow(t *testing.T) {
	sw := begin()
	sw.sampleRef()
	sw.sampleRef() // too soon after the first: no second sample
	cost := sw.end()
	if len(sw.refs) != 1 || sw.refs[0].wall <= 0 || sw.refs[0].cpu <= 0 {
		t.Fatalf("samples %v, want one", sw.refs)
	}
	if kernel := sw.refs[0].wall * refNominal.Seconds(); cost.wall > kernel/2 {
		t.Errorf("window read %.6f s around a kernel that took %.6f s", cost.wall, kernel)
	}
	if sw.refAlloc == 0 || cost.allocBytes > sw.refAlloc/10 {
		t.Errorf("window read %d bytes allocated, the kernel allocated %d", cost.allocBytes, sw.refAlloc)
	}
	if got := sw.slowdown(); got != sw.refs[0] {
		t.Errorf("slowdown %v, want %v", got, sw.refs[0])
	}
}
