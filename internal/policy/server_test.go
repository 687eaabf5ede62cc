package policy

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/planner"
)

// capturedWake is one wake of a fleet run: a copy of its support, its
// instant, and the pending sends of each of its decisions in order.
type capturedWake struct {
	sup     []belief.Hypothesis
	now     time.Duration
	pending [][]model.Send
}

// wakeCapture is a plain planner.CompiledPolicy that never hits and keeps
// the first max wakes of the run it is wired into. A wake's first decision
// sees no pending sends, since its Update folds every send of the wakes
// before, and each later decision of the wake, at the same instant, one
// more.
type wakeCapture struct {
	max   int
	wakes []capturedWake
	open  bool
}

func (c *wakeCapture) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (planner.Decision, bool) {
	n := len(c.wakes)
	switch {
	case len(pending) > 0 && c.open && c.wakes[n-1].now == now:
		c.wakes[n-1].pending = append(c.wakes[n-1].pending, slices.Clone(pending))
	case len(pending) == 0 && n < c.max:
		cp := slices.Clone(sup)
		for i := range cp {
			cp[i].S = cp[i].S.Clone()
		}
		c.wakes = append(c.wakes, capturedWake{sup: cp, now: now, pending: [][]model.Send{slices.Clone(pending)}})
		c.open = true
	default:
		c.open = false
	}
	return planner.Decision{}, false
}

// fleetWakes returns the first n wakes of a short fleet run, at least one
// of them with more than one decision.
func fleetWakes(t testing.TB, n int) []capturedWake {
	t.Helper()
	c := &wakeCapture{max: n}
	fleet.New(fleet.Config{N: 8, Seed: 5, Table: c}).Run(5 * time.Second)
	if len(c.wakes) < n {
		t.Fatalf("captured %d wakes, want %d", len(c.wakes), n)
	}
	if !slices.ContainsFunc(c.wakes, func(w capturedWake) bool { return len(w.pending) > 1 }) {
		t.Fatal("no captured wake decides more than once")
	}
	return c.wakes
}

// Kinds of table entry a decision's fingerprint can meet.
const (
	kindHit      = iota // a record under the fingerprint and its verify hash
	kindMismatch        // a record under the fingerprint, another verify hash
	kindAbsent          // no record under the fingerprint
)

// servedTable writes and opens a table over every decision of wakes under
// quanta (tq, wq): the k-th distinct fingerprint gets the entry kindOf(k),
// with a payload drawn from k. It returns the table and each decision's
// kind, wake by wake.
func servedTable(t testing.TB, wakes []capturedWake, tq time.Duration, wq float64, kindOf func(k int) int) (*Table, [][]int) {
	t.Helper()
	kinds := make([][]int, len(wakes))
	byFP := make(map[uint64]int)
	var recs []Record
	for i, w := range wakes {
		for _, p := range w.pending {
			fp, ver := planner.Fingerprint(w.sup, p, w.now, tq, wq)
			kind, seen := byFP[fp]
			if !seen {
				k := len(byFP)
				kind = kindOf(k)
				byFP[fp] = kind
				r := Record{FP: fp, Verify: ver, SendNow: k%2 == 0, Delta: time.Duration(k+1) * time.Millisecond, Gain: float64(k)}
				switch kind {
				case kindMismatch:
					r.Verify ^= 1
					recs = append(recs, r)
				case kindHit:
					recs = append(recs, r)
				}
			}
			kinds[i] = append(kinds[i], kind)
		}
	}
	h := testHeader()
	h.TimeQuantum, h.WeightQuantum = tq, wq
	path := filepath.Join(t.TempDir(), "served.pol")
	if err := WriteTable(path, h, recs); err != nil {
		t.Fatal(err)
	}
	tb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	return tb, kinds
}

// TestProbeWakeMatchesProbe: on the wakes of a fleet run, the wake-keyed
// probe answers every decision exactly as the support-keyed one — table
// hits, misses and verify-hash mismatches alike, on a wake whose support
// half another consumer printed first under other quanta too.
func TestProbeWakeMatchesProbe(t *testing.T) {
	wakes := fleetWakes(t, 60)
	tb, kinds := servedTable(t, wakes, 50*time.Millisecond, 1e-3, func(k int) int { return k % 3 })
	srv := NewServer(tb, nil)
	var seen [3]int
	for i, cw := range wakes {
		var w planner.Wake
		w.Reset(belief.Wrap(cw.sup), cw.now)
		if i%2 == 1 {
			// A cache under other quanta printed this wake first.
			w.Fingerprint(nil, 0, 1e-6)
		}
		for j, p := range cw.pending {
			got, gotOK := srv.ProbeWake(&w, p)
			want, wantOK := srv.Probe(cw.sup, p, cw.now)
			if got != want || gotOK != wantOK {
				t.Fatalf("wake %d decision %d (kind %d): ProbeWake %+v %v, Probe %+v %v", i, j, kinds[i][j], got, gotOK, want, wantOK)
			}
			if gotOK != (kinds[i][j] == kindHit) {
				t.Fatalf("wake %d decision %d (kind %d) served = %v", i, j, kinds[i][j], gotOK)
			}
			seen[kinds[i][j]]++
		}
	}
	if seen[kindHit] == 0 || seen[kindMismatch] == 0 || seen[kindAbsent] == 0 {
		t.Fatalf("decisions per kind (hit, mismatch, absent) = %v: a kind went unexercised", seen)
	}
}

// TestProbeWakeDoesNotAllocate pins the serving path: a table hit through
// ProbeWake allocates nothing, on a wake's first decision (which prints
// the support) and on its later ones (which reuse the print).
func TestProbeWakeDoesNotAllocate(t *testing.T) {
	wakes := fleetWakes(t, 60)
	i := slices.IndexFunc(wakes, func(w capturedWake) bool { return len(w.pending) > 1 })
	cw := wakes[i]
	tb, _ := servedTable(t, wakes, 50*time.Millisecond, 1e-3, func(int) int { return kindHit })
	srv := NewServer(tb, nil)
	var w planner.Wake
	var ok bool
	first := testing.AllocsPerRun(100, func() {
		w.Reset(belief.Wrap(cw.sup), cw.now)
		_, ok = srv.ProbeWake(&w, cw.pending[0])
	})
	if !ok {
		t.Fatal("first decision missed the table")
	}
	later := testing.AllocsPerRun(100, func() {
		_, ok = srv.ProbeWake(&w, cw.pending[1])
	})
	if !ok {
		t.Fatal("later decision missed the table")
	}
	if first != 0 || later != 0 {
		t.Fatalf("ProbeWake allocates %v times on a wake's first decision and %v on a later one, want 0", first, later)
	}
}

// TestServerSharedByGuards: two Guards on two goroutines serve every
// decision of the same wakes from one Server, as a fleet's members and a
// shard's partitions share one, and each gets the decision the Server
// gives alone.
func TestServerSharedByGuards(t *testing.T) {
	wakes := fleetWakes(t, 60)
	tb, _ := servedTable(t, wakes, 50*time.Millisecond, 1e-3, func(int) int { return kindHit })
	srv := NewServer(tb, nil)
	var want []planner.Decision
	for _, cw := range wakes {
		for _, p := range cw.pending {
			d, _ := srv.Probe(cw.sup, p, cw.now)
			want = append(want, d)
		}
	}
	probes0, _, _ := srv.Stats()
	var wg sync.WaitGroup
	guards := [2]*planner.Guard{planner.NewGuard(0, nil), planner.NewGuard(0, nil)}
	errs := make([]error, len(guards))
	for gi, g := range guards {
		g.Compiled = srv
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := 0
			for _, cw := range wakes {
				w := planner.NewWake(cw.sup, cw.now)
				for _, p := range cw.pending {
					if d := g.Decide(w, p, 0, planner.Config{}); d != want[k] {
						errs[gi] = fmt.Errorf("decision %d: %+v, the Server alone %+v", k, d, want[k])
						return
					}
					k++
				}
			}
		}()
	}
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			t.Fatalf("guard %d: %v", gi, err)
		}
		if g := guards[gi]; g.CompiledHits != int64(len(want)) || g.Live != 0 {
			t.Fatalf("guard %d: %d compiled hits and %d live decisions, want %d and 0", gi, g.CompiledHits, g.Live, len(want))
		}
	}
	if probes, hits, misses := srv.Stats(); probes-probes0 != 2*int64(len(want)) || misses != 0 || hits != probes {
		t.Fatalf("server stats probes %d (from %d) hits %d misses %d, want %d more probes, all hits", probes, probes0, hits, misses, 2*len(want))
	}
}
