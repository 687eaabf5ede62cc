// Command soak drives the chaos-hardened runtime end to end and prints
// a pass/fail verdict per invariant (-out also writes it as JSON).
//
// Two phases:
//
//  1. DES determinism: the standard fault menu replayed twice through
//     experiments.RunChaos must hash bit-identically and must exercise
//     belief-collapse recovery (Reseeded > 0).
//  2. Live soak: N transport senders run over loopback through chaotic
//     emu.Proxy instances — 30% ack-loss bursts on the return path,
//     reordering and corruption on both paths, a 2 s blackout a third of
//     the way in, and (flow 0) a jumping wall clock. Each flow also runs
//     a clean pass for baseline; the invariants are zero panics, zero
//     leaked goroutines, bounded heap, and post-blackout delivered
//     utility at ≥ 70% of the clean run's in the same window.
//
// Usage:
//
//	go run ./cmd/soak [-n 3] [-dur 60s] [-seed 1] [-out report.json] [-smoke]
//
// -smoke shrinks the run to ~30 s of wall time (2 senders, 10 s passes)
// for CI. Exit status is non-zero when any invariant fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/core"
	"modelcc/internal/emu"
	"modelcc/internal/experiments"
	"modelcc/internal/model"
	"modelcc/internal/planner"
	"modelcc/internal/trace"
	"modelcc/internal/transport"
	"modelcc/internal/utility"
)

// Check is one pass/fail invariant with its evidence.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// FlowReport is one sender's clean-vs-chaos comparison.
type FlowReport struct {
	Flow int `json:"flow"`
	// CleanUtil/ChaosUtil are delivered utility (receiver-side, delay
	// discounted) inside the post-blackout window.
	CleanUtil float64 `json:"clean_util"`
	ChaosUtil float64 `json:"chaos_util"`
	Ratio     float64 `json:"ratio"`
	// Sender-side counters from the chaotic pass.
	Sent         int64 `json:"sent"`
	Acked        int64 `json:"acked"`
	DecodeErrors int64 `json:"decode_errors"`
	ReadRetries  int64 `json:"read_retries"`
	ClockClamps  int64 `json:"clock_clamps"`
	// Fault tallies from the chaotic proxy.
	Fwd chaos.Stats `json:"fwd"`
	Ack chaos.Stats `json:"ack"`
}

// Report is the whole soak run, written as JSON under -out.
type Report struct {
	At        time.Time    `json:"at"`
	Smoke     bool         `json:"smoke"`
	Senders   int          `json:"senders"`
	DurS      float64      `json:"pass_duration_s"`
	DESHashA  string       `json:"des_hash_a"`
	DESHashB  string       `json:"des_hash_b"`
	DESReseed int          `json:"des_reseeded"`
	Flows     []FlowReport `json:"flows"`
	GorBase   int          `json:"goroutines_base"`
	GorEnd    int          `json:"goroutines_end"`
	HeapBytes uint64       `json:"heap_alloc_bytes"`
	Checks    []Check      `json:"checks"`
	Pass      bool         `json:"pass"`
}

// desMenu is the standard fault menu on the DES path: bursty ~30% loss,
// stale reordering, corruption-as-drop, and a 2 s blackout.
func desMenu(seed int64) chaos.Config {
	return chaos.Config{
		Seed:         seed,
		DropProb:     0.03,
		BurstProb:    0.1,
		CorruptProb:  0.03,
		ReorderProb:  0.3,
		ReorderDelay: 2 * time.Second,
		Blackouts:    []chaos.Window{{Start: 20 * time.Second, Len: 2 * time.Second}},
	}
}

// desPrior is a small hypothesis grid around the DES truth (Fig2Actual),
// sized so two 120 s virtual runs finish in about a second.
func desPrior() model.Prior {
	return model.Prior{
		LinkRate:       model.PriorRange{Lo: 10000, Hi: 16000, N: 4},
		CrossFrac:      model.PriorRange{Lo: 0.4, Hi: 0.7, N: 2},
		LossProb:       model.PriorRange{Lo: 0, Hi: 0.2, N: 2},
		BufferCapBits:  model.PriorRange{Lo: 72000, Hi: 108000, N: 4},
		FullnessSteps:  2,
		MeanSwitch:     100 * time.Second,
		PingerMaybeOff: true,
	}
}

// livePrior models the proxy's constant 120 kbit/s link, like the
// transport loopback tests.
func livePrior() model.Prior {
	return model.Prior{
		LinkRate:      model.PriorRange{Lo: 60000, Hi: 180000, N: 5},
		BufferCapBits: model.PriorRange{Lo: 960000, Hi: 960000, N: 1},
		FullnessSteps: 1,
	}
}

func livePlan() planner.Config {
	cfg := planner.DefaultConfig()
	cfg.MaxDelay = 400 * time.Millisecond
	cfg.Grid = 50 * time.Millisecond
	cfg.Horizon = 5 * time.Second
	return cfg
}

// fwdMenu/ackMenu are the live proxy's standard menu: a mostly-clean
// forward path (reordering, light corruption, the blackout) and a return
// path with ~30% ack loss in bursts on top of it.
func fwdMenu(seed int64, blackout chaos.Window) chaos.Config {
	return chaos.Config{
		Seed:         seed,
		DropProb:     0.02,
		CorruptProb:  0.05,
		ReorderProb:  0.2,
		ReorderDelay: 60 * time.Millisecond,
		Blackouts:    []chaos.Window{blackout},
	}
}

func ackMenu(seed int64, blackout chaos.Window) chaos.Config {
	cfg := fwdMenu(seed+1000, blackout)
	cfg.BurstProb = 0.1 // ~25% of acks inside length-4 bursts, ~30% total loss
	return cfg
}

// flowResult is one pass of one flow.
type flowResult struct {
	util       float64 // delivered utility inside [winFrom, winTo)
	stats      transport.SenderStats
	fwd, ack   chaos.Stats
	senderErr  error
	receiveErr error
}

// runFlow executes one sender/receiver pair over loopback for dur,
// optionally through a chaotic proxy, and meters delivered utility at
// the receiver inside the given window (times relative to flow start).
func runFlow(seed int64, dur, winFrom, winTo time.Duration, faults, ackFaults *chaos.Config, jumpy bool) (flowResult, error) {
	var res flowResult

	recvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, err
	}
	defer recvConn.Close()
	recv := transport.NewReceiver(recvConn)

	util := utility.Default()
	util.Alpha = 1
	var mu sync.Mutex
	start := time.Now()
	recv.OnData = func(seq, sentNanos, recvNanos int64) {
		at := time.Duration(recvNanos - start.UnixNano())
		if at < winFrom || at >= winTo {
			return
		}
		// Loopback: sender epoch ≈ flow start, so sender-relative stamps
		// and receiver wall clock share a base to within scheduling noise.
		delay := at - time.Duration(sentNanos)
		if delay < 0 {
			delay = 0
		}
		mu.Lock()
		res.util += 12000 * util.Discount(delay)
		mu.Unlock()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); res.receiveErr = recv.Run(ctx) }()

	proxy, err := emu.NewProxy("127.0.0.1:0", recvConn.LocalAddr().String(), emu.ProxyConfig{
		Trace:     trace.Constant(120000, 12000), // 10 packets/s
		QueueBits: 120000,
		Seed:      seed,
		Chaos:     faults,
		AckChaos:  ackFaults,
	})
	if err != nil {
		cancel()
		wg.Wait()
		return res, err
	}
	defer proxy.Close()
	wg.Add(1)
	go func() { defer wg.Done(); proxy.Run(ctx) }()

	sndConn, err := net.DialUDP("udp", nil, proxy.Addr())
	if err != nil {
		cancel()
		proxy.Close()
		wg.Wait()
		return res, err
	}
	defer sndConn.Close()

	states, _ := livePrior().Enumerate()
	bel := belief.NewExact(states, belief.Config{SoftSigma: 30 * time.Millisecond, Recover: true})
	cs := core.NewSender(bel, livePlan())
	cs.Guard = planner.NewGuard(50*time.Millisecond, planner.NewPolicyCache(256))
	snd := transport.NewSender(sndConn, cs, 1500)
	if jumpy && faults != nil {
		jcfg := *faults
		// The backwards step lands after the blackout (wakes are dense
		// again) and is larger than any plausible wake spacing, so the
		// monotone clamp must observe it.
		jcfg.ClockJumps = []chaos.Jump{
			{At: dur / 4, Delta: 150 * time.Millisecond},
			{At: 3 * dur / 4, Delta: -time.Second},
		}
		snd.Clock = jcfg.Clock(func() time.Duration { return time.Since(start) })
	}

	res.stats, res.senderErr = snd.Run(ctx, dur)

	cancel()
	proxy.Close()
	wg.Wait()
	res.fwd, res.ack = proxy.ChaosStats()
	return res, nil
}

func main() {
	n := flag.Int("n", 3, "concurrent senders in the live soak")
	dur := flag.Duration("dur", 60*time.Second, "wall duration of each live pass (clean and chaotic)")
	seed := flag.Int64("seed", 1, "fault schedule seed")
	out := flag.String("out", "", "also write the report as JSON to this path (empty = print only)")
	smoke := flag.Bool("smoke", false, "CI smoke: 2 senders, 10 s passes (~30 s total)")
	flag.Parse()
	if *smoke {
		*n = 2
		*dur = 10 * time.Second
	}

	rep := Report{At: time.Now(), Smoke: *smoke, Senders: *n, DurS: dur.Seconds()}
	check := func(name string, pass bool, format string, args ...any) {
		rep.Checks = append(rep.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
		status := "PASS"
		if !pass {
			status = "FAIL"
		}
		fmt.Printf("%s %-24s %s\n", status, name, fmt.Sprintf(format, args...))
	}

	gorBase := runtime.NumGoroutine()
	rep.GorBase = gorBase

	// Phase 1: DES determinism + recovery under the standard menu.
	desUtil := utility.Default()
	desUtil.Alpha = 1
	desCfg := experiments.ChaosConfig{
		Base: experiments.ISenderConfig{
			Actual:        model.Fig2Actual(),
			PingerOnStart: true,
			Gate:          model.GateSquareWave,
			HalfPeriod:    100 * time.Second,
			Prior:         desPrior(),
			Utility:       desUtil,
			BeliefCfg:     belief.Config{Recover: true},
			Seed:          *seed,
			Duration:      120 * time.Second,
		},
		Faults: desMenu(*seed),
	}
	a := experiments.RunChaos(desCfg)
	b := experiments.RunChaos(desCfg)
	rep.DESHashA = fmt.Sprintf("%016x", a.Hash)
	rep.DESHashB = fmt.Sprintf("%016x", b.Hash)
	rep.DESReseed = a.Reseeded
	check("des-replay", a.Hash == b.Hash, "hash %s vs %s (sent=%d acked=%d)", rep.DESHashA, rep.DESHashB, a.Sent, a.Acked)
	check("des-recovery", a.Reseeded > 0, "belief reseeded %d times under the menu", a.Reseeded)

	// Phase 2: live soak — each flow runs a clean and a chaotic pass; the
	// flows themselves run concurrently.
	blackout := chaos.Window{Start: *dur / 3, Len: 2 * time.Second}
	winFrom := blackout.Start + blackout.Len + 500*time.Millisecond
	winTo := *dur

	type flowOut struct {
		clean, chaotic flowResult
		err            error
	}
	outs := make([]flowOut, *n)
	var wg sync.WaitGroup
	for i := 0; i < *n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fseed := *seed + int64(i)*17
			clean, err := runFlow(fseed, *dur, winFrom, winTo, nil, nil, false)
			if err != nil {
				outs[i].err = err
				return
			}
			fwd := fwdMenu(fseed, blackout)
			ack := ackMenu(fseed, blackout)
			chaotic, err := runFlow(fseed, *dur, winFrom, winTo, &fwd, &ack, i == 0)
			outs[i] = flowOut{clean: clean, chaotic: chaotic, err: err}
		}(i)
	}
	wg.Wait()

	for i, o := range outs {
		if o.err != nil {
			check(fmt.Sprintf("flow%d-run", i), false, "flow error: %v", o.err)
			continue
		}
		fr := FlowReport{
			Flow:         i,
			CleanUtil:    o.clean.util,
			ChaosUtil:    o.chaotic.util,
			Sent:         o.chaotic.stats.Sent,
			Acked:        o.chaotic.stats.Acked,
			DecodeErrors: o.chaotic.stats.DecodeErrors,
			ReadRetries:  o.chaotic.stats.ReadRetries,
			ClockClamps:  o.chaotic.stats.ClockClamps,
			Fwd:          o.chaotic.fwd,
			Ack:          o.chaotic.ack,
		}
		if o.clean.util > 0 {
			fr.Ratio = o.chaotic.util / o.clean.util
		}
		rep.Flows = append(rep.Flows, fr)
		check(fmt.Sprintf("flow%d-errors", i), o.clean.senderErr == nil && o.chaotic.senderErr == nil,
			"clean=%v chaos=%v", o.clean.senderErr, o.chaotic.senderErr)
		check(fmt.Sprintf("flow%d-progress", i), fr.Sent > 0 && fr.Acked > 0,
			"chaotic pass sent=%d acked=%d (fwd %+v; ack %+v)", fr.Sent, fr.Acked, fr.Fwd, fr.Ack)
		check(fmt.Sprintf("flow%d-recovery", i), o.clean.util > 0 && fr.Ratio >= 0.7,
			"post-blackout utility %.0f vs clean %.0f (ratio %.2f, floor 0.70)", fr.ChaosUtil, fr.CleanUtil, fr.Ratio)
		if i == 0 {
			check("flow0-clock-clamped", fr.ClockClamps > 0,
				"backwards clock jump clamped %d times", fr.ClockClamps)
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
	rep.GorEnd = gorEnd
	check("goroutines", gorEnd <= gorBase+2, "baseline %d, after soak %d", gorBase, gorEnd)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapBytes = ms.HeapAlloc
	check("heap", ms.HeapAlloc < 256<<20, "HeapAlloc %.1f MiB (bound 256 MiB)", float64(ms.HeapAlloc)/(1<<20))

	rep.Pass = true
	for _, c := range rep.Checks {
		if !c.Pass {
			rep.Pass = false
		}
	}

	if *out != "" {
		j, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(j, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak: write report:", err)
			os.Exit(1)
		}
		fmt.Printf("soak: report written to %s\n", *out)
	}
	fmt.Printf("soak: pass=%v\n", rep.Pass)
	if !rep.Pass {
		os.Exit(1)
	}
}
