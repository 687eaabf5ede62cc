package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckRanges: a replay flag outside its domain is a usage error
// naming the flag. (Regression: compile and verify took -n 0, a negative
// -dur and -minhit 7.)
func TestCheckRanges(t *testing.T) {
	const s = time.Second
	for _, c := range []struct {
		n      int
		dur    time.Duration
		minhit float64
		bad    string // "" = accepted
	}{
		{32, 30 * s, 0.9, ""},
		{1, time.Nanosecond, 0, ""},
		{1, s, 1, ""},
		{0, s, 0.9, "-n"},
		{-4, s, 0.9, "-n"},
		{8, 0, 0.9, "-dur"},
		{8, -5 * s, 0.9, "-dur"},
		{8, s, -0.1, "-minhit"},
		{8, s, 7, "-minhit"},
		{8, s, math.NaN(), "-minhit"},
	} {
		err := checkRanges(c.n, c.dur, c.minhit)
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
