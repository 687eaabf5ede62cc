package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckRanges: a generator parameter outside its domain is a usage
// error naming the flag, never an empty or inverted trace.
func TestCheckRanges(t *testing.T) {
	const s = time.Second
	for _, c := range []struct {
		duration         time.Duration
		min, max, outage float64
		bad              string // "" = accepted
	}{
		{60 * s, 0.5e6, 8e6, 0.02, ""},
		{s, 1, 1, 0, ""},
		{s, 1, 2, 1, ""},
		{0, 0.5e6, 8e6, 0.02, "-duration"},
		{-s, 0.5e6, 8e6, 0.02, "-duration"},
		{s, 0, 8e6, 0.02, "-min"},
		{s, -1, 8e6, 0.02, "-min"},
		{s, math.NaN(), 8e6, 0.02, "-min"},
		{s, 9e6, 8e6, 0.02, "-min"},
		{s, 1, math.NaN(), 0.02, "-min"},
		{s, 0.5e6, 8e6, -0.1, "-outage"},
		{s, 0.5e6, 8e6, 1.1, "-outage"},
		{s, 0.5e6, 8e6, math.NaN(), "-outage"},
	} {
		err := checkRanges(c.duration, c.min, c.max, c.outage)
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
