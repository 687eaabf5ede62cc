package transport

import (
	"context"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
)

func softCfg() belief.Config {
	return belief.Config{SoftSigma: 30 * time.Millisecond, Relax: true}
}

// TestLoopbackDirect runs sender -> receiver over plain loopback: the
// sender should quickly infer a fast link and keep packets flowing.
func TestLoopbackDirect(t *testing.T) {
	res, err := RunLoopback(context.Background(), Loopback{Sender: LiveSender(softCfg())}, 1500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Sender
	t.Logf("sent=%d acked=%d meanOWD=%v wakes=%d", stats.Sent, stats.Acked, stats.MeanOWD, stats.Wakes)
	if stats.Sent == 0 {
		t.Fatal("sender never sent over loopback")
	}
	if stats.Acked == 0 {
		t.Fatal("no acknowledgments over loopback")
	}
}

// TestLoopbackThroughProxy inserts the trace-driven emulator in the
// path: a constant 120 kbit/s link. The sender must settle near the
// emulated rate — the end-to-end "aha" of the reproduction.
func TestLoopbackThroughProxy(t *testing.T) {
	link := LiveLink()
	link.Seed = 1
	res, err := RunLoopback(context.Background(), Loopback{Sender: LiveSender(softCfg()), Link: &link}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Sender
	t.Logf("sent=%d acked=%d meanOWD=%v proxyFwd=%d proxyDrop=%d",
		stats.Sent, stats.Acked, stats.MeanOWD, res.Link.Forwarded, res.Link.Dropped)
	if stats.Acked == 0 {
		t.Fatal("no acknowledgments through the emulated link")
	}
	// ~10 pkt/s for 3 s: expect at least a handful delivered, and the
	// sender must not have grossly overdriven the link.
	if stats.Acked < 5 {
		t.Errorf("acked = %d, want >= 5 through a 10 pkt/s link", stats.Acked)
	}
}

// TestLoopbackConservation holds the socket path to account: every
// datagram the sender wrote ends in exactly one of the link's tallies,
// on a clean link and under the live fault menus
// (reordering, corruption, drops, a blackout), and nothing is
// acknowledged that was not forwarded.
func TestLoopbackConservation(t *testing.T) {
	blackout := chaos.Window{Start: time.Second, Len: 500 * time.Millisecond}
	fwd, ack := LiveMenus(7, blackout)
	for _, c := range []struct {
		name     string
		fwd, ack *chaos.Config
	}{
		{"clean", nil, nil},
		{"chaos", &fwd, &ack},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // both runs sit idle between 100 ms service times
			link := LiveLink()
			link.Seed, link.LossProb, link.Chaos, link.AckChaos = 7, 0.1, c.fwd, c.ack
			cs := LiveSender(belief.Config{SoftSigma: 30 * time.Millisecond, Recover: true})
			res, err := RunLoopback(context.Background(), Loopback{Sender: cs, Link: &link}, 3*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			l, f := res.Link, res.Fwd
			t.Logf("sender %+v\nlink %+v\nfwd %+v\nack %+v", res.Sender, l, f, res.Ack)
			if res.Sender.Sent == 0 || l.Forwarded == 0 {
				t.Fatalf("nothing moved: sent=%d forwarded=%d", res.Sender.Sent, l.Forwarded)
			}
			if c.fwd != nil && f.Blackholed+f.Dropped+f.Reordered == 0 {
				t.Errorf("the fault menu injected nothing: %+v", f)
			}
			if l.Received != res.Sender.Sent {
				t.Errorf("link read %d datagrams, sender wrote %d", l.Received, res.Sender.Sent)
			}
			ends := l.Dropped + l.Lost + f.Dropped + f.Blackholed - f.Duplicated + l.Forwarded + l.WriteFailed + l.Unsent
			if ends != l.Received {
				t.Errorf("tallies account for %d of %d datagrams read", ends, l.Received)
			}
			if res.Sender.Acked > l.Forwarded {
				t.Errorf("acked %d > forwarded %d", res.Sender.Acked, l.Forwarded)
			}
		})
	}
}
