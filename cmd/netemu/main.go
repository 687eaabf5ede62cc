// Command netemu is a mahimahi-style UDP link emulator: it listens on a
// UDP port, shapes client->target datagrams through a trace-driven
// bottleneck (queue, delay, stochastic loss), and relays target->client
// datagrams directly.
//
// Usage:
//
//	netemu -listen :9000 -target 127.0.0.1:9001 [-trace cell.trace] [-rate 120000] [-queue 1048576] [-delay 25ms] [-loss 0.0]
//
// With -trace the schedule comes from a mahimahi-format file; otherwise
// a constant -rate link is emulated.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"modelcc/internal/emu"
	"modelcc/internal/trace"
	"modelcc/internal/units"
)

// checkRanges refuses link parameters outside their domain — a zero
// rate has no delivery schedule, a zero queue drops everything. A
// non-nil error is a usage error.
func checkRanges(rate float64, queue int, delay time.Duration, loss float64) error {
	switch {
	case !(rate > 0):
		return fmt.Errorf("-rate %v: must be positive", rate)
	case queue <= 0:
		return fmt.Errorf("-queue %d: must be positive", queue)
	case delay < 0:
		return fmt.Errorf("-delay %v: must not be negative", delay)
	case !(loss >= 0 && loss <= 1):
		return fmt.Errorf("-loss %v: must be a probability in [0, 1]", loss)
	}
	return nil
}

func main() {
	listen := flag.String("listen", ":9000", "client-facing UDP address")
	target := flag.String("target", "", "upstream UDP address (required)")
	traceFile := flag.String("trace", "", "mahimahi-format delivery trace")
	rate := flag.Float64("rate", 120000, "constant link rate (bits/s) when no trace is given")
	queue := flag.Int("queue", 1<<20, "queue capacity in bytes")
	delay := flag.Duration("delay", 0, "one-way propagation delay")
	loss := flag.Float64("loss", 0, "stochastic loss probability")
	seed := flag.Int64("seed", 1, "loss process seed")
	flag.Parse()

	if *target == "" {
		fmt.Fprintln(os.Stderr, "netemu: -target is required")
		os.Exit(2)
	}
	if err := checkRanges(*rate, *queue, *delay, *loss); err != nil {
		fmt.Fprintln(os.Stderr, "netemu:", err)
		os.Exit(2)
	}

	var tr trace.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netemu:", err)
			os.Exit(1)
		}
		tr, err = trace.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "netemu:", err)
			os.Exit(1)
		}
	} else {
		tr = trace.Constant(units.BitRate(*rate), 12000)
	}

	proxy, err := emu.NewProxy(*listen, *target, emu.ProxyConfig{
		Trace:     tr,
		QueueBits: units.BytesToBits(*queue),
		Delay:     *delay,
		LossProb:  *loss,
		Seed:      *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "netemu:", err)
		os.Exit(1)
	}
	defer proxy.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "netemu: %v -> %s (mean rate %v)\n",
		proxy.Addr(), *target, tr.MeanRate(12000))
	go func() {
		tick := time.NewTicker(10 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				st := proxy.Stats()
				fmt.Fprintf(os.Stderr, "netemu: forwarded=%d dropped=%d lost=%d write-failed=%d read-retries=%d\n",
					st.Forwarded, st.Dropped, st.Lost, st.WriteFailed, st.ReadRetries)
			}
		}
	}()
	proxy.Run(ctx)
}
