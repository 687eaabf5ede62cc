package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRuns reads the JSON lines bench run -out wrote.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// quartiles returns the cut points Python's
// statistics.quantiles(values, n=4) gives (its default, exclusive,
// method), which is how the acceptance check measures spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: better).
func worseBy(s spec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if s.Better == "higher" {
		d = -d
	}
	return d
}

// everyBetter reports whether every run of b reads better than every
// run of a.
func everyBetter(s spec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if worseBy(s, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

type metricKey struct{ workload, name string }

func collect(runs []runRecord) map[metricKey][]float64 {
	out := map[metricKey][]float64{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			k := metricKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// cmdDiff compares two sets of runs metric by metric against the
// benchmark's bounds. With one file it reports that set's spread.
func cmdDiff(args []string, w io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: bench diff a.jsonl [b.jsonl]")
	}
	a, err := readRuns(args[0])
	if err != nil {
		return err
	}
	va := collect(a)
	var vb map[metricKey][]float64
	if len(args) == 2 {
		b, err := readRuns(args[1])
		if err != nil {
			return err
		}
		vb = collect(b)
	}

	specs := append(append([]spec(nil), endToEnd...), perLayer...)
	var bad int
	for _, wl := range workloads {
		header := false
		for _, s := range specs {
			k := metricKey{wl.name, s.Name}
			xs := va[k]
			if len(xs) == 0 {
				continue
			}
			if !header {
				header = true
				if vb == nil {
					fmt.Fprintf(w, "%s (%d runs)\n  %-34s %-6s %13s %13s %13s %8s %6s\n",
						wl.name, len(xs), "metric", "unit", "q1", "median", "q3", "spread", "bound")
				} else {
					fmt.Fprintf(w, "%s (%d vs %d runs)\n  %-34s %-6s %38s  %38s %8s %6s\n",
						wl.name, len(xs), len(vb[k]), "metric", "unit", "a: q1 / median / q3", "b: q1 / median / q3", "b worse", "bound")
				}
			}
			a1, a2, a3 := quartiles(xs)
			if vb == nil {
				verdict := ""
				if s.Bound > 0 {
					verdict = "steady"
					if spread(xs) > s.Bound/3 {
						verdict = "noisy (spread above a third of the bound)"
					}
				}
				fmt.Fprintf(w, "  %-34s %-6s %13.6g %13.6g %13.6g %7.2f%% %5.1f%% %s\n",
					s.Name, s.Unit, a1, a2, a3, 100*spread(xs), 100*s.Bound, verdict)
				continue
			}
			ys := vb[k]
			if len(ys) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(ys)
			by := worseBy(s, a2, b2)
			verdict := ""
			switch {
			case s.Bound == 0:
			case by > s.Bound:
				verdict = "worse"
				bad++
			case math.Max(spread(xs), spread(ys)) > s.Bound && !everyBetter(s, xs, ys):
				verdict = "unresolved"
				bad++
			default:
				verdict = "ok"
			}
			fmt.Fprintf(w, "  %-34s %-6s %12.6g/%12.6g/%12.6g  %12.6g/%12.6g/%12.6g %+7.2f%% %5.1f%% %s\n",
				s.Name, s.Unit, a1, a2, a3, b1, b2, b3, 100*by, 100*s.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse or unresolved", bad)
	}
	return nil
}
