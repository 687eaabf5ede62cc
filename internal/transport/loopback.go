package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/core"
	"modelcc/internal/emu"
	"modelcc/internal/model"
	"modelcc/internal/planner"
	"modelcc/internal/trace"
)

// LiveLink is the emulated link every loopback run uses: a constant
// 120 kbit/s (10 packets of 1500 bytes a second) behind a 10-packet
// queue. Callers add a seed, a delay or a chaos schedule to it.
func LiveLink() emu.ProxyConfig {
	return emu.ProxyConfig{Trace: trace.Constant(120000, 12000), QueueBits: 120000}
}

// LiveSender is an ISENDER for LiveLink under the caller's belief
// configuration: its prior puts the link at 60–180 kbit/s in five steps,
// the truth among them, and its planner is sized to the link's 100 ms
// service time, so a wall-clock run of a few seconds shows it settling.
func LiveSender(cfg belief.Config) *core.Sender {
	states, _ := model.Prior{
		LinkRate:      model.PriorRange{Lo: 60000, Hi: 180000, N: 5},
		BufferCapBits: model.PriorRange{Lo: 960000, Hi: 960000, N: 1},
		FullnessSteps: 1,
	}.Enumerate()
	plan := planner.DefaultConfig()
	plan.MaxDelay = 400 * time.Millisecond
	plan.Grid = 50 * time.Millisecond
	plan.Horizon = 5 * time.Second
	return core.NewSender(belief.NewExact(states, cfg), plan)
}

// LiveMenus is a live run's standard fault menu: a mostly-clean forward
// path (reordering, light corruption, a 200 ms stall of the forwarding
// process halfway to the blackout, the blackout) and, on its own seed, a
// return path with ~30% ack loss in bursts on top of that.
func LiveMenus(seed int64, blackout chaos.Window) (fwd, ack chaos.Config) {
	fwd = chaos.Config{
		Seed:         seed,
		DropProb:     0.02,
		CorruptProb:  0.05,
		ReorderProb:  0.2,
		ReorderDelay: 60 * time.Millisecond,
		Stalls:       []chaos.Window{{Start: blackout.Start / 2, Len: 200 * time.Millisecond}},
		Blackouts:    []chaos.Window{blackout},
	}
	ack = fwd
	ack.Seed = seed + 1000
	ack.BurstProb = 0.1 // ~25% of acks inside length-4 bursts, ~30% total loss
	return fwd, ack
}

// Loopback describes one sender → (emulated link →) receiver chain on
// 127.0.0.1.
type Loopback struct {
	// Sender is the caller's ISENDER; its belief configuration and Guard
	// stay the caller's.
	Sender *core.Sender
	// Link, when non-nil, puts an emu.Proxy between sender and receiver;
	// nil connects them directly.
	Link *emu.ProxyConfig
	// Clock and OnData, when non-nil, become Sender.Clock and
	// Receiver.OnData.
	Clock  func() time.Duration
	OnData func(seq, sentNanos, recvNanos int64)
}

// LoopbackResult is what one loopback run observed: the sender's
// counters, the link's tallies and the faults its two injectors dealt
// (all zero without a link).
type LoopbackResult struct {
	Sender SenderStats    `json:"sender"`
	Link   emu.ProxyStats `json:"link"`
	Fwd    chaos.Stats    `json:"fwd"`
	Ack    chaos.Stats    `json:"ack"`
}

// loopback holds the chain's sockets and endpoints between open and
// close.
type loopback struct {
	recvConn, sndConn *net.UDPConn
	recv              *Receiver
	proxy             *emu.Proxy // nil when direct
	snd               *Sender
}

func openLoopback(cfg Loopback) (*loopback, error) {
	recvConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	l := &loopback{recvConn: recvConn, recv: NewReceiver(recvConn)}
	l.recv.OnData = cfg.OnData
	to := recvConn.LocalAddr().(*net.UDPAddr)
	if cfg.Link != nil {
		if l.proxy, err = emu.NewProxy("127.0.0.1:0", to.String(), *cfg.Link); err != nil {
			l.close()
			return nil, err
		}
		to = l.proxy.Addr()
	}
	if l.sndConn, err = net.DialUDP("udp", nil, to); err != nil {
		l.close()
		return nil, err
	}
	l.snd = NewSender(l.sndConn, cfg.Sender, 1500)
	l.snd.Clock = cfg.Clock
	return l, nil
}

func (l *loopback) close() {
	if l.sndConn != nil {
		l.sndConn.Close()
	}
	if l.proxy != nil {
		l.proxy.Close()
	}
	l.recvConn.Close()
}

// run serves the receiver and the link while the sender runs for dur,
// then tears down in the one order that leaves the tallies readable:
// cancel, close the link (in-flight delayed deliveries stand down), join
// both goroutines, and only then read the injectors' statistics.
func (l *loopback) run(ctx context.Context, dur time.Duration) (res LoopbackResult, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var recvErr, linkErr error
	wg.Add(1)
	go func() { defer wg.Done(); recvErr = l.recv.Run(ctx) }()
	if l.proxy != nil {
		wg.Add(1)
		go func() { defer wg.Done(); linkErr = l.proxy.Run(ctx) }()
	}

	res.Sender, err = l.snd.Run(ctx, dur)

	if err == nil && l.proxy != nil {
		// The sender's last datagrams may still sit in the link's socket
		// buffer: let the link read them, so every datagram sent ends in
		// one of its tallies.
		until := time.Now().Add(100 * time.Millisecond)
		for l.proxy.Stats().Received < res.Sender.Sent && time.Now().Before(until) {
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	if l.proxy != nil {
		l.proxy.Close()
	}
	wg.Wait()
	if l.proxy != nil {
		res.Link = l.proxy.Stats()
		res.Fwd, res.Ack = l.proxy.ChaosStats()
	}
	return res, errors.Join(err, recvErr, linkErr)
}

// RunLoopback opens the chain, runs cfg.Sender over it for dur (or until
// ctx is cancelled) and closes it, leaving no socket or goroutine
// behind. The error is a failed set-up, or what Sender.Run, Receiver.Run
// and Proxy.Run returned, joined.
func RunLoopback(ctx context.Context, cfg Loopback, dur time.Duration) (LoopbackResult, error) {
	l, err := openLoopback(cfg)
	if err != nil {
		return LoopbackResult{}, err
	}
	defer l.close()
	return l.run(ctx, dur)
}
