package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestLifecycleFlagsMeanOneThing: in a lifecycle mode a flag means what
// it means everywhere else, or the combination is a usage error.
// (Regressions: -shard-crash -shards 0 ran one shard per CPU;
// -jain-floor was ignored by sharded churn; with -lean it passed every
// run silently.)
func TestLifecycleFlagsMeanOneThing(t *testing.T) {
	// -shards 0 is "no sharding". A fault mode has no single-loop form,
	// so it runs one shard — never shard.ResolveShards(0) = one per CPU.
	sharded, k, err := resolveLifecycle(true, true, 0, false, 0)
	if err != nil || !sharded || k != 1 {
		t.Errorf("-shard-crash -shards 0 resolved sharded=%v k=%d err=%v, want the sharded driver at 1", sharded, k, err)
	}
	// In churn mode it stays the single-loop supervised lifecycle, as
	// does -churn with no -shards at all.
	for _, set := range []bool{true, false} {
		shards := 0
		if !set {
			shards = 8 // the flag's NumCPU default, not typed
		}
		if sharded, _, err := resolveLifecycle(false, set, shards, false, 0); err != nil || sharded {
			t.Errorf("-churn (shards typed=%v) resolved sharded=%v err=%v, want the single-loop driver", set, sharded, err)
		}
	}
	if sharded, k, err := resolveLifecycle(false, true, 4, false, 0.9); err != nil || !sharded || k != 4 {
		t.Errorf("-churn -shards 4 -jain-floor 0.9 resolved sharded=%v k=%d err=%v", sharded, k, err)
	}

	// -lean leaves no Jain index to hold to a floor: refuse, whichever
	// driver would have run.
	for _, fault := range []bool{false, true} {
		_, _, err := resolveLifecycle(fault, fault, 2, true, 0.9)
		if err == nil {
			t.Errorf("-lean -jain-floor (fault mode %v) resolved without a usage error", fault)
		} else if !strings.Contains(err.Error(), "-lean") {
			t.Errorf("usage error does not name the conflict: %v", err)
		}
	}
	if _, _, err := resolveLifecycle(false, true, 2, true, 0); err != nil {
		t.Errorf("-churn -shards 2 -lean alone refused: %v", err)
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
		bad                                string // "" = accepted
	}{
		{120 * s, 10 * s, 6000, 1, 0.04, 0.06, 0.5, ""},
		{s, s, 1, 0, 0, 0, 1, ""},
		{-5 * s, 10 * s, 6000, 1, 0, 0, 0, "-dur"},
		{0, 10 * s, 6000, 1, 0, 0, 0, "-dur"},
		{s, 0, 6000, 1, 0, 0, 0, "-epoch"},
		{s, s, 0, 1, 0, 0, 0, "-rate"},
		{s, s, -100, 1, 0, 0, 0, "-rate"},
		{s, s, math.NaN(), 1, 0, 0, 0, "-rate"},
		{s, s, 6000, -1, 0, 0, 0, "-alpha"},
		{s, s, 6000, 1, 2, 0, 0, "-depart"},
		{s, s, 6000, 1, 0, -0.1, 0, "-crash"},
		{s, s, 6000, 1, 0, 0, 1.5, "-arrive"},
		{s, s, 6000, 1, 0, 0, math.NaN(), "-arrive"},
	} {
		err := checkRanges(c.dur, c.epoch, c.rate, c.alpha, c.depart, c.crash, c.arrive)
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
