package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckRanges: a flag value outside its domain is a usage error
// naming the flag, never a run of nothing. (Regression: -duration -5s
// ran nothing and exited 0; -alphas took negatives and NaN.)
func TestCheckRanges(t *testing.T) {
	for _, c := range []struct {
		duration time.Duration
		alphas   []float64
		bad      string // "" = accepted
	}{
		{300 * time.Second, []float64{0.9, 1, 2.5, 5}, ""},
		{time.Nanosecond, []float64{0}, ""},
		{-5 * time.Second, []float64{1}, "-duration"},
		{0, []float64{1}, "-duration"},
		{time.Second, []float64{1, -0.5}, "-alphas"},
		{time.Second, []float64{math.NaN()}, "-alphas"},
		{time.Second, []float64{math.Inf(1)}, "-alphas"},
	} {
		err := checkRanges(c.duration, c.alphas)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%+v refused: %v", c, err)
		case c.bad != "" && err == nil:
			t.Errorf("%+v accepted, want a usage error naming %s", c, c.bad)
		case c.bad != "" && !strings.HasPrefix(err.Error(), c.bad+" "):
			t.Errorf("%+v: error %q does not name %s", c, err, c.bad)
		}
	}
}
