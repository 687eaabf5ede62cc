package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckRanges: a link parameter outside its domain is a usage error
// naming the flag, never a link that silently forwards nothing.
func TestCheckRanges(t *testing.T) {
	for _, c := range []struct {
		rate  float64
		queue int
		delay time.Duration
		loss  float64
		bad   string // "" = accepted
	}{
		{120000, 1 << 20, 0, 0, ""},
		{1, 1, time.Second, 1, ""},
		{0, 1 << 20, 0, 0, "-rate"},
		{-5, 1 << 20, 0, 0, "-rate"},
		{math.NaN(), 1 << 20, 0, 0, "-rate"},
		{120000, 0, 0, 0, "-queue"},
		{120000, -1, 0, 0, "-queue"},
		{120000, 1 << 20, -time.Millisecond, 0, "-delay"},
		{120000, 1 << 20, 0, -0.1, "-loss"},
		{120000, 1 << 20, 0, 1.5, "-loss"},
		{120000, 1 << 20, 0, math.NaN(), "-loss"},
	} {
		err := checkRanges(c.rate, c.queue, c.delay, c.loss)
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
