package main

import (
	"strings"
	"testing"
	"time"
)

// TestCheckRanges: a soak that would run no flow, or no post-blackout
// window, is a usage error naming the flag — never "pass=true" over
// nothing. (Regression: -n 0 ran no flow and passed.)
func TestCheckRanges(t *testing.T) {
	const s = time.Second
	for _, c := range []struct {
		n   int
		dur time.Duration
		bad string // "" = accepted
	}{
		{3, 60 * s, ""},
		{2, 10 * s, ""}, // -smoke
		{1, 4 * s, ""},
		{0, 60 * s, "-n"},
		{-2, 60 * s, "-n"},
		{3, 0, "-dur"},
		{3, -s, "-dur"},
		{3, 3 * s, "-dur"},
		{3, 3750 * time.Millisecond, "-dur"}, // the window would be empty
	} {
		err := checkRanges(c.n, c.dur)
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
