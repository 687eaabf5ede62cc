package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestCheckRanges: a replay flag outside its domain is a usage error
// naming the flag. (Regression: compile and verify took -n 0, a negative
// -dur and -minhit 7, and compile exited 1 on -seeds abc.)
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
		named(fmt.Sprintf("%+v", c), checkRanges(c.n, c.dur, c.minhit), c.bad)
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

// TestWorkersFlagUndefined: compile and verify have no -workers (rollouts
// are serial), so passing it is an undefined flag: exit 2 before any
// replay. Each command line runs in a child process of this test binary,
// since a flag error exits; -n 0 keeps a child that took the flag from
// replaying anything.
func TestWorkersFlagUndefined(t *testing.T) {
	if args := os.Getenv("POLICYC_TEST_ARGS"); args != "" {
		os.Args = append([]string{"policyc"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"compile -workers=1 -n 0", "verify -workers=1 -n 0 table.pol"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWorkersFlagUndefined$")
		cmd.Env = append(os.Environ(), "POLICYC_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "not defined: -workers") {
			t.Errorf("policyc %s: err = %v, output %q; want exit 2 on an undefined -workers", args, err, out)
		}
	}
}
