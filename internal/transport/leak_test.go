package transport

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"modelcc/internal/chaos"
)

// settleGoroutines polls until the goroutine count returns to at most
// base, or the deadline passes; it returns the final count.
func settleGoroutines(base int, wait time.Duration) int {
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// openRig opens the loopback chain for a test that runs its pieces by
// hand; the sockets close with the test.
func openRig(t *testing.T, cfg Loopback) *loopback {
	t.Helper()
	cfg.Sender = LiveSender(softCfg())
	l, err := openLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.close)
	return l
}

// TestSenderRunNoLeakOnCancel: cancelling mid-run must join the ack
// reader; a wedged reader would poison every later test's count.
func TestSenderRunNoLeakOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	l := openRig(t, Loopback{})

	rctx, rcancel := context.WithCancel(context.Background())
	recvDone := make(chan struct{})
	go func() { defer close(recvDone); l.recv.Run(rctx) }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	if _, err := l.snd.Run(ctx, 10*time.Second); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}

	rcancel()
	<-recvDone
	if n := settleGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("goroutines after cancel: %d, want <= %d", n, base)
	}
}

// TestReceiverRunNoLeakOnCancel: nothing the receiver starts may outlive
// Run, even when the socket stays open.
func TestReceiverRunNoLeakOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	l := openRig(t, Loopback{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.recv.Run(ctx) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("receiver returned %v on cancel, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver did not return after cancel")
	}
	if n := settleGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("goroutines after cancel: %d, want <= %d", n, base)
	}
}

// TestProxyRunNoLeakOnClose: a bare Close (no context cancellation) must
// return Run promptly with all three proxy goroutines joined — the exact
// pattern every defer-using caller relies on.
func TestProxyRunNoLeakOnClose(t *testing.T) {
	base := runtime.NumGoroutine()
	link := LiveLink()
	proxy := openRig(t, Loopback{Link: &link}).proxy

	done := make(chan error, 1)
	go func() { done <- proxy.Run(context.Background()) }()
	time.Sleep(100 * time.Millisecond)

	proxy.Close()
	proxy.Close() // idempotent
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("proxy.Run returned %v after Close, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("proxy.Run did not return after Close")
	}
	proxy.Close() // still safe after Run returned
	if n := settleGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("goroutines after Close: %d, want <= %d", n, base)
	}
}

// TestLoopbackNoLeakOnCancel: the whole rig cancelled mid-run, under a
// chaotic link that is holding every released datagram back on a timer,
// joins all of it — receiver, the link's three goroutines, the ack
// reader, the pending deliveries.
func TestLoopbackNoLeakOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	link := LiveLink()
	link.Delay = time.Second // longer than cancellation plus every read loop's poll interval
	link.Chaos = &chaos.Config{Seed: 3, ReorderProb: 1, ReorderDelay: 100 * time.Millisecond}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(250*time.Millisecond, cancel)
	res, err := RunLoopback(ctx, Loopback{Sender: LiveSender(softCfg()), Link: &link}, 10*time.Second)
	// The sender's error, and nothing joined to it by receiver or link.
	if !errors.Is(err, context.Canceled) || err.Error() != context.Canceled.Error() {
		t.Fatalf("RunLoopback returned %v, want context.Canceled alone", err)
	}
	// Released (the injector saw them) but not one written yet: they were
	// in flight when the rig came down.
	if res.Fwd.Packets == 0 || res.Link.Forwarded != 0 {
		t.Fatalf("no delivery was in flight at cancellation: released %d, forwarded %d", res.Fwd.Packets, res.Link.Forwarded)
	}
	if n := settleGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("goroutines after cancel: %d, want <= %d", n, base)
	}
}
