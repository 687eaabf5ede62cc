// Udpdemo: the full stack over real sockets — ISENDER -> trace-driven
// UDP link emulator -> RECEIVER, all on loopback. The sender starts
// uncertain about the emulated link's rate and discovers it from
// acknowledgment timings alone.
//
//	go run ./examples/udpdemo
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "udpdemo:", err)
		os.Exit(1)
	}
}

func run() error {
	// Emulated link: constant 120 kbit/s (10 packets/second), a 10-packet
	// queue, 5 ms of propagation delay.
	link := transport.LiveLink()
	link.Delay = 5 * time.Millisecond
	link.Seed = 1

	// Sender: uncertain about the link rate (60-180 kbit/s prior).
	isender := transport.LiveSender(belief.Config{
		SoftSigma: 100 * time.Millisecond,
		Relax:     true,
	})

	truth := link.Trace.MeanRate(12000)
	fmt.Printf("Emulated link: %v; prior: 60-180 kbit/s\n", truth)
	fmt.Println("Running for 8 wall-clock seconds...")

	res, err := transport.RunLoopback(context.Background(),
		transport.Loopback{Sender: isender, Link: &link}, 8*time.Second)
	if err != nil {
		return err
	}

	stats, e := res.Sender, isender.Estimates()
	fmt.Printf("\nsent=%d acked=%d mean one-way delay=%v wakes=%d\n",
		stats.Sent, stats.Acked, stats.MeanOWD.Round(time.Millisecond), stats.Wakes)
	fmt.Printf("posterior E[link rate]=%v (truth: %v); %d hypotheses standing\n",
		e.ELinkRate, truth, e.N)
	fmt.Printf("proxy: forwarded=%d dropped=%d\n", res.Link.Forwarded, res.Link.Dropped)
	if stats.Acked == 0 {
		return fmt.Errorf("no packets acknowledged")
	}
	return nil
}
