package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckRanges: a replay flag outside its domain is a usage error
// naming the flag. (Regression: compile and verify took -n 0, a negative
// -dur, -minhit 7 and -workers -3, and compile exited 1 on -seeds abc.)
func TestCheckRanges(t *testing.T) {
	const s = time.Second
	named := func(what string, err error, bad string) {
		t.Helper()
		switch {
		case bad == "" && err != nil:
			t.Errorf("%s refused: %v", what, err)
		case bad != "" && err == nil:
			t.Errorf("%s accepted, want a usage error naming %s", what, bad)
		case bad != "" && !strings.HasPrefix(err.Error(), bad+" "):
			t.Errorf("%s: error %q does not name %s", what, err, bad)
		}
	}
	for _, c := range []struct {
		n       int
		dur     time.Duration
		minhit  float64
		workers int
		bad     string // "" = accepted
	}{
		{32, 30 * s, 0.9, 0, ""},
		{1, time.Nanosecond, 0, 1, ""},
		{1, s, 1, 4, ""},
		{0, s, 0.9, 0, "-n"},
		{-4, s, 0.9, 0, "-n"},
		{8, 0, 0.9, 0, "-dur"},
		{8, -5 * s, 0.9, 0, "-dur"},
		{8, s, -0.1, 0, "-minhit"},
		{8, s, 7, 0, "-minhit"},
		{8, s, math.NaN(), 0, "-minhit"},
		{8, s, 0.9, -1, "-workers"},
		{8, s, 0.9, -3, "-workers"},
	} {
		named(fmt.Sprintf("%+v", c), checkRanges(c.n, c.dur, c.minhit, c.workers), c.bad)
	}
	for _, c := range []struct {
		seeds string
		bad   string
	}{
		{"1", ""},
		{"1,2,3", ""},
		{" 4 , -5 ,", ""},
		{"", ""},
		{"abc", "-seeds"},
		{"1,x,3", "-seeds"},
		{"1.5", "-seeds"},
	} {
		_, err := parseSeeds(c.seeds)
		named(fmt.Sprintf("-seeds %q", c.seeds), err, c.bad)
	}
}
