// Command soak runs the chaos-hardened transport over real sockets and
// prints a pass/fail verdict per invariant.
//
// N transport senders run over loopback through chaotic emu.Proxy
// instances — 30% ack-loss bursts on the return path, reordering and
// corruption on both paths, a 2 s blackout a third of the way in, and
// (flow 0) a jumping wall clock. Each flow also runs a clean pass for
// baseline; the invariants are zero errors, zero leaked goroutines,
// bounded heap, and post-blackout delivered utility at ≥ 70% of the
// clean run's in the same window. (The DES side of the same fault menu —
// bit-identical replay, belief-collapse recovery — is pinned in tier-1:
// TestChaosReplayBitIdentical, TestChaosExercisesRecovery and
// TestGoldenChaos in internal/experiments.)
//
// Usage:
//
//	go run ./cmd/soak [-n 3] [-dur 60s] [-seed 1] [-smoke]
//
// -smoke shrinks the run to ~20 s of wall time (2 senders, 10 s passes)
// for CI. Exit status is 1 when any invariant fails, 2 on a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/planner"
	"modelcc/internal/transport"
	"modelcc/internal/utility"
)

// blackoutLen is the outage every chaotic pass survives, and settle what
// the flow is given after it before delivered utility is compared.
const (
	blackoutLen = 2 * time.Second
	settle      = 500 * time.Millisecond
)

// checkRanges refuses flag values that would run nothing and report
// success, or leave no post-blackout window to compare. A non-nil error
// is a usage error.
func checkRanges(n int, dur time.Duration) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n %d: must be at least 1", n)
	case dur <= 0:
		return fmt.Errorf("-dur %v: must be positive", dur)
	case dur/3+blackoutLen+settle >= dur:
		return fmt.Errorf("-dur %v: too short to hold the %v blackout at dur/3 and a window after it", dur, blackoutLen)
	}
	return nil
}

// flowResult is one pass of one flow.
type flowResult struct {
	util float64 // delivered utility inside the post-blackout window
	transport.LoopbackResult
	err error
}

// runFlow executes one sender/receiver pair over loopback for dur,
// through the live link — clean, or under the standard fault menus with
// the blackout a third of the way in, and then optionally on a jumping
// clock — and meters delivered utility at the receiver in the window
// from settle after the blackout's end (clean passes included) to dur.
func runFlow(seed int64, dur time.Duration, chaotic, jumpy bool) flowResult {
	var res flowResult
	util := utility.Default()
	util.Alpha = 1
	start := time.Now()
	blackout := chaos.Window{Start: dur / 3, Len: blackoutLen}
	winFrom := blackout.End() + settle

	link := transport.LiveLink()
	link.Seed = seed
	fwd, ack := transport.LiveMenus(seed, blackout)
	if chaotic {
		link.Chaos, link.AckChaos = &fwd, &ack
	}
	cs := transport.LiveSender(belief.Config{SoftSigma: 30 * time.Millisecond, Recover: true})
	cs.Guard = planner.NewGuard(50*time.Millisecond, planner.NewPolicyCache(256))
	rig := transport.Loopback{
		Sender: cs,
		Link:   &link,
		// Called from the receiver's goroutine only, and read after the rig
		// has joined it.
		OnData: func(seq, sentNanos, recvNanos int64) {
			at := time.Duration(recvNanos - start.UnixNano())
			if at < winFrom || at >= dur {
				return
			}
			// Loopback: sender epoch ≈ flow start, so sender-relative stamps
			// and receiver wall clock share a base to within scheduling noise.
			res.util += 12000 * util.Discount(max(at-time.Duration(sentNanos), 0))
		},
	}
	if jumpy {
		jcfg := fwd
		// The backwards step lands after the blackout (wakes are dense
		// again) and is larger than any plausible wake spacing, so the
		// monotone clamp must observe it.
		jcfg.ClockJumps = []chaos.Jump{
			{At: dur / 4, Delta: 150 * time.Millisecond},
			{At: 3 * dur / 4, Delta: -time.Second},
		}
		rig.Clock = jcfg.Clock(func() time.Duration { return time.Since(start) })
	}
	res.LoopbackResult, res.err = transport.RunLoopback(context.Background(), rig, dur)
	return res
}

func main() {
	n := flag.Int("n", 3, "concurrent senders in the live soak")
	dur := flag.Duration("dur", 60*time.Second, "wall duration of each live pass (clean and chaotic)")
	seed := flag.Int64("seed", 1, "fault schedule seed")
	smoke := flag.Bool("smoke", false, "CI smoke: 2 senders, 10 s passes (~20 s total)")
	flag.Parse()
	if *smoke {
		*n = 2
		*dur = 10 * time.Second
	}
	if err := checkRanges(*n, *dur); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(2)
	}

	allPass := true
	check := func(name string, pass bool, format string, args ...any) {
		status := "PASS"
		if !pass {
			status = "FAIL"
			allPass = false
		}
		fmt.Printf("%s %-24s %s\n", status, name, fmt.Sprintf(format, args...))
	}

	gorBase := runtime.NumGoroutine()

	// Each flow runs a clean and a chaotic pass; the flows themselves run
	// concurrently.
	type flowOut struct{ clean, chaotic flowResult }
	outs := make([]flowOut, *n)
	var wg sync.WaitGroup
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fseed := *seed + int64(i)*17
			outs[i].clean = runFlow(fseed, *dur, false, false)
			outs[i].chaotic = runFlow(fseed, *dur, true, i == 0)
		}(i)
	}
	wg.Wait()

	for i, o := range outs {
		var ratio float64
		if o.clean.util > 0 {
			ratio = o.chaotic.util / o.clean.util
		}
		check(fmt.Sprintf("flow%d-errors", i), o.clean.err == nil && o.chaotic.err == nil,
			"clean=%v chaos=%v", o.clean.err, o.chaotic.err)
		st := o.chaotic.Sender
		check(fmt.Sprintf("flow%d-progress", i), st.Sent > 0 && st.Acked > 0,
			"chaotic pass sent=%d acked=%d (fwd %+v; ack %+v)", st.Sent, st.Acked, o.chaotic.Fwd, o.chaotic.Ack)
		check(fmt.Sprintf("flow%d-recovery", i), o.clean.util > 0 && ratio >= 0.7,
			"post-blackout utility %.0f vs clean %.0f (ratio %.2f, floor 0.70)", o.chaotic.util, o.clean.util, ratio)
		if i == 0 {
			check("flow0-clock-clamped", st.ClockClamps > 0,
				"backwards clock jump clamped %d times", st.ClockClamps)
		}
	}

	// Invariants: no goroutine leak (settle first — runtime timers and
	// pool workers wind down asynchronously) and bounded heap.
	deadline := time.Now().Add(5 * time.Second)
	gorEnd := runtime.NumGoroutine()
	for gorEnd > gorBase+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		gorEnd = runtime.NumGoroutine()
	}
	check("goroutines", gorEnd <= gorBase+2, "baseline %d, after soak %d", gorBase, gorEnd)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	check("heap", ms.HeapAlloc < 256<<20, "HeapAlloc %.1f MiB (bound 256 MiB)", float64(ms.HeapAlloc)/(1<<20))

	fmt.Printf("soak: pass=%v\n", allPass)
	if !allPass {
		os.Exit(1)
	}
}
