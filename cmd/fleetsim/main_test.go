package main

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// parseLifecycle parses a `fleetsim churn|fault` command line the way
// main does, with parse errors returned instead of exiting.
func parseLifecycle(mode string, args ...string) (*lifecycleRun, error) {
	fs, l := lifecycleFlags(mode)
	fs.Init(fs.Name(), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return l, l.resolve()
}

// TestLifecycleFlagsMeanOneThing: in a lifecycle mode a flag means what
// it means everywhere else, or the combination is a usage error.
// (Regressions: -shard-crash -shards 0 ran one shard per CPU;
// -jain-floor was ignored by sharded churn; with -lean it passed every
// run silently.)
func TestLifecycleFlagsMeanOneThing(t *testing.T) {
	// -shards 0 is "no sharding". A fault mode has no single-loop form,
	// so the library runs one shard — never shard.ResolveShards(0) = one
	// per CPU. The command hands the library the knob and Shards 0;
	// TestChurnFaultKnobRunsOneShard (internal/experiments) holds the
	// library to the rule.
	for _, args := range [][]string{{"-shard-crash", "-shards", "0"}, {"-shard-crash"}} {
		l, err := parseLifecycle("fault", args...)
		if err != nil {
			t.Fatalf("fault %v: %v", args, err)
		}
		if c := l.sweep.Base; c.Shards != 0 || c.ShardKillProb <= 0 || c.ShardStallProb <= 0 || !c.NoChurn {
			t.Errorf("fault %v resolved Shards=%d kill=%v stall=%v NoChurn=%v, want the fault knobs armed, no churn, and Shards left to the library rule",
				args, c.Shards, c.ShardKillProb, c.ShardStallProb, c.NoChurn)
		}
	}
	// In churn mode it stays the single-loop supervised lifecycle, as
	// does churn with no -shards at all (the flag's default is 0 here,
	// not the sweep's NumCPU).
	for _, args := range [][]string{{"-shards", "0"}, nil} {
		l, err := parseLifecycle("churn", args...)
		if err != nil {
			t.Fatalf("churn %v: %v", args, err)
		}
		if c := l.sweep.Base; c.Shards != 0 || c.NoChurn || c.ShardKillProb != 0 || c.ShardStallProb != 0 {
			t.Errorf("churn %v resolved %+v, want the single-loop driver under churn with no fault knob", args, c)
		}
	}
	if l, err := parseLifecycle("churn", "-shards", "4", "-jain-floor", "0.9"); err != nil || l.sweep.Base.Shards != 4 || l.opts.jainFloor != 0.9 {
		t.Errorf("churn -shards 4 -jain-floor 0.9 resolved %+v err=%v", l, err)
	}
	// -verify-shards compares the barrier runtime's hashes, so it selects
	// that runtime when -shards did not.
	if l, err := parseLifecycle("churn", "-smoke", "-verify-shards", "1,4"); err != nil || l.sweep.Base.Shards != 1 {
		t.Errorf("churn -smoke -verify-shards 1,4 resolved %+v err=%v, want the sharded driver at 1", l, err)
	}

	// -lean leaves no Jain index to hold to a floor: refuse, whichever
	// driver would have run.
	for _, mode := range []string{"churn", "fault"} {
		_, err := parseLifecycle(mode, "-shards", "2", "-lean", "-jain-floor", "0.9")
		if err == nil {
			t.Errorf("%s -lean -jain-floor resolved without a usage error", mode)
		} else if !strings.Contains(err.Error(), "-lean") {
			t.Errorf("usage error does not name the conflict: %v", err)
		}
	}
	if _, err := parseLifecycle("churn", "-shards", "2", "-lean"); err != nil {
		t.Errorf("churn -shards 2 -lean alone refused: %v", err)
	}

	// A flag that means nothing in a mode is a parse error there.
	for _, c := range []struct{ mode, flag string }{
		{"churn", "-shard-crash"}, {"churn", "-window-budget=1s"}, {"churn", "-per-flow"},
		{"fault", "-epoch=5s"}, {"fault", "-crash=0.5"}, {"fault", "-alpha=2"}, {"fault", "-window-budget=1s"},
	} {
		if _, err := parseLifecycle(c.mode, c.flag); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s %s: err = %v, want a flag-not-defined parse error", c.mode, c.flag, err)
		}
	}
	fs, _ := sweepFlags()
	fs.Init(fs.Name(), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse([]string{"-epoch", "5s"}); err == nil {
		t.Error("sweep -epoch 5s parsed; the sweep has no churn schedule")
	}
}

// TestEmptySizeListRefused: a size list that names no size is a usage
// error, never the default sweep. (Regression: -n , ran the default
// sizes, and -verify-shards , verified nothing and exited 0.)
func TestEmptySizeListRefused(t *testing.T) {
	for _, v := range []string{",", "", " , "} {
		fs, _ := sweepFlags()
		fs.Init(fs.Name(), flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-n", v}); err == nil || !strings.Contains(err.Error(), "no size given") {
			t.Errorf("sweep -n %q: err = %v, want no size given", v, err)
		}
		for _, c := range []struct{ mode, flag string }{
			{"churn", "-n"}, {"fault", "-n"}, {"churn", "-verify-shards"},
		} {
			if _, err := parseLifecycle(c.mode, c.flag, v); err == nil || !strings.Contains(err.Error(), "no size given") {
				t.Errorf("%s %s %q: err = %v, want no size given", c.mode, c.flag, v, err)
			}
		}
	}
	if l, err := parseLifecycle("churn", "-n", "4,,16"); err != nil || len(l.sweep.Ns) != 2 {
		t.Errorf("churn -n 4,,16 resolved %+v err=%v, want sizes 4 and 16", l, err)
	}
}

// TestCheckRanges: a numeric flag outside its domain is a usage error
// naming the flag, never a silent default or a zero-length run.
// (Regressions: -dur -5s ran nothing and exited 0; -rate 0 became 6000.)
func TestCheckRanges(t *testing.T) {
	const s = time.Second
	for _, c := range []struct {
		dur, epoch                         time.Duration
		rate, alpha, depart, crash, arrive float64
		jain                               float64
		shards, workers                    int
		bad                                string // "" = accepted
	}{
		{120 * s, 10 * s, 6000, 1, 0.04, 0.06, 0.5, 0, 0, 0, ""},
		{s, s, 1, 1e-3, 0, 0, 1, 0, 0, 0, ""},
		{-5 * s, 10 * s, 6000, 1, 0, 0, 0, 0, 0, 0, "-dur"},
		{0, 10 * s, 6000, 1, 0, 0, 0, 0, 0, 0, "-dur"},
		{s, 0, 6000, 1, 0, 0, 0, 0, 0, 0, "-epoch"},
		{s, s, 0, 1, 0, 0, 0, 0, 0, 0, "-rate"},
		{s, s, -100, 1, 0, 0, 0, 0, 0, 0, "-rate"},
		{s, s, math.NaN(), 1, 0, 0, 0, 0, 0, 0, "-rate"},
		{s, s, 6000, -1, 0, 0, 0, 0, 0, 0, "-alpha"},
		{s, s, 6000, 0, 0, 0, 0, 0, 0, 0, "-alpha"},
		{s, s, 6000, 1, 2, 0, 0, 0, 0, 0, "-depart"},
		{s, s, 6000, 1, 0, -0.1, 0, 0, 0, 0, "-crash"},
		{s, s, 6000, 1, 0, 0, 1.5, 0, 0, 0, "-arrive"},
		{s, s, 6000, 1, 0, 0, math.NaN(), 0, 0, 0, "-arrive"},
		{s, s, 1, 1e-3, 0, 0, 1, 1, 4, 2, ""},
		{s, s, math.Inf(1), 1, 0, 0, 0, 0, 0, 0, "-rate"},
		{s, s, 6000, math.Inf(1), 0, 0, 0, 0, 0, 0, "-alpha"},
		{s, s, 6000, 1, 0, 0, 0, math.NaN(), 0, 0, "-jain-floor"},
		{s, s, 6000, 1, 0, 0, 0, 1.5, 0, 0, "-jain-floor"},
		{s, s, 6000, 1, 0, 0, 0, -0.1, 0, 0, "-jain-floor"},
		{s, s, 6000, 1, 0, 0, 0, 0, -1, 0, "-shards"},
		{s, s, 6000, 1, 0, 0, 0, 0, 0, -2, "-workers"},
	} {
		err := checkRanges(c.dur, c.epoch, c.rate, c.alpha, c.depart, c.crash, c.arrive, c.jain, c.shards, c.workers)
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
