package emu

import (
	"context"
	"net"
	"testing"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/trace"
)

func udpListen(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestProxyChaosForwardFaults: a chaotic proxy still moves traffic, and
// its injectors account for every datagram they saw. This is the
// real-socket half of the chaos plumbing; the DES half is
// chaos.TestElementReplay.
func TestProxyChaosForwardFaults(t *testing.T) {
	target := udpListen(t)
	defer target.Close()

	faults := &chaos.Config{
		Seed:     7,
		DropProb: 0.3,
		DupProb:  0.1,
	}
	proxy, err := NewProxy("127.0.0.1:0", target.LocalAddr().String(), ProxyConfig{
		Trace: trace.Constant(1200000, 12000), // 100 pkt/s
		Chaos: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proxyDone := make(chan struct{})
	go func() { defer close(proxyDone); proxy.Run(ctx) }()

	client, err := net.DialUDP("udp", nil, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const sent = 60
	payload := make([]byte, 1500)
	for i := 0; i < sent; i++ {
		if _, err := client.Write(payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Count arrivals at the target until the stream dries up.
	got := 0
	buf := make([]byte, 64*1024)
	for {
		target.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, _, err := target.ReadFromUDP(buf); err != nil {
			break
		}
		got++
	}

	proxy.Close()
	<-proxyDone
	fwd, _ := proxy.ChaosStats()
	t.Logf("sent=%d delivered=%d chaos=%+v", sent, got, fwd)
	if got == 0 {
		t.Fatal("chaotic proxy delivered nothing")
	}
	if fwd.Packets == 0 {
		t.Fatal("forward injector saw no packets")
	}
	if fwd.Dropped == 0 {
		t.Fatalf("30%% drop probability over %d packets produced no drops", fwd.Packets)
	}
	// Conservation: everything the injector passed arrived (loopback
	// does not lose), everything it dropped did not.
	expect := fwd.Packets - fwd.Dropped - fwd.Blackholed + fwd.Duplicated
	if int64(got) != expect {
		t.Fatalf("delivered %d, injector accounting says %d", got, expect)
	}
}

// TestProxySurvivesRefusedTarget: with nobody bound at the target the
// forwarded datagrams come back as ICMP port-unreachable, which a
// connected UDP socket reports as ECONNREFUSED on its next read or write.
// That is a lossy episode, not the end of the link: once the target is
// bound again, its replies must reach the client. (Regression: the
// return path returned on its first read error and relayed nothing for
// the life of the proxy.)
func TestProxySurvivesRefusedTarget(t *testing.T) {
	target := udpListen(t)
	addr := target.LocalAddr().(*net.UDPAddr)
	target.Close() // the port is known and, for now, unbound

	proxy, err := NewProxy("127.0.0.1:0", addr.String(), ProxyConfig{
		Trace: trace.Constant(1200000, 12000), // 100 pkt/s
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxyDone := make(chan struct{})
	go func() { defer close(proxyDone); proxy.Run(context.Background()) }()

	client, err := net.DialUDP("udp", nil, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	payload := make([]byte, 200)
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := client.Write(payload); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	send(10)
	refused := proxy.Stats()
	if refused.ReadRetries+refused.WriteFailed == 0 {
		t.Fatalf("forwarding to an unbound port surfaced no error: %+v", refused)
	}

	// Rebind the target and echo whatever arrives.
	target, err = net.ListenUDP("udp", addr)
	if err != nil {
		t.Skipf("could not rebind %v: %v", addr, err)
	}
	defer target.Close()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, from, err := target.ReadFromUDP(buf)
			if err != nil {
				return
			}
			target.WriteToUDP(buf[:n], from)
		}
	}()

	send(20)
	echoes := 0
	buf := make([]byte, 64*1024)
	for {
		client.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		if _, err := client.Read(buf); err != nil {
			break
		}
		echoes++
	}
	proxy.Close()
	<-proxyDone
	st := proxy.Stats()
	t.Logf("while refused %+v; at the end %+v; echoes relayed back %d", refused, st, echoes)
	if st.Forwarded == 0 {
		t.Fatal("nothing forwarded after the target came back")
	}
	if echoes == 0 {
		t.Fatal("return path did not survive the refused episode: no echo relayed")
	}
	if ends := st.Dropped + st.Lost + st.Forwarded + st.WriteFailed + st.Unsent; ends != st.Received {
		t.Fatalf("tallies account for %d of %d datagrams read: %+v", ends, st.Received, st)
	}
}

// TestProxyStallHoldsForTimeLeft: a stall window holds the forward path
// until the window ends and no longer. (Regression: the scheduler slept
// for the window's end measured from the proxy's start rather than for
// the time left to it — a [500 ms, 700 ms) window entered at 500 ms held
// the queue 700 ms, until 1.2 s.)
func TestProxyStallHoldsForTimeLeft(t *testing.T) {
	target := udpListen(t)
	defer target.Close()
	stall := chaos.Window{Start: 500 * time.Millisecond, Len: 200 * time.Millisecond}
	proxy, err := NewProxy("127.0.0.1:0", target.LocalAddr().String(), ProxyConfig{
		Trace: trace.Constant(1200000, 12000), // 100 pkt/s
		Chaos: &chaos.Config{Seed: 1, Stalls: []chaos.Window{stall}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	proxyDone := make(chan struct{})
	start := time.Now()
	go func() { defer close(proxyDone); proxy.Run(ctx) }()

	client, err := net.DialUDP("udp", nil, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const runFor = 1500 * time.Millisecond
	go func() {
		payload := make([]byte, 1500)
		for time.Since(start) < runFor {
			if _, err := client.Write(payload); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// The longest silence at the target is the stall as the proxy held it.
	var hold time.Duration
	last := start
	buf := make([]byte, 64*1024)
	target.SetReadDeadline(start.Add(runFor))
	for {
		if _, _, err := target.ReadFromUDP(buf); err != nil {
			break
		}
		now := time.Now()
		if gap := now.Sub(last); gap > hold && last != start {
			hold = gap
		}
		last = now
	}
	proxy.Close()
	<-proxyDone
	t.Logf("longest hold %v for a %v stall ending at %v", hold, stall.Len, stall.End())
	if hold < stall.Len/2 {
		t.Errorf("longest hold %v: the %v stall window never held the queue; test is vacuous", hold, stall.Len)
	}
	if hold >= stall.End()-100*time.Millisecond {
		t.Errorf("held %v for a %v stall: the proxy slept for the window's end (%v), not the time left", hold, stall.Len, stall.End())
	}
}
