package emu

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/trace"
	"modelcc/internal/units"
	"modelcc/internal/wire"
)

// ProxyConfig shapes the emulated forward path of a Proxy.
type ProxyConfig struct {
	// Trace schedules delivery opportunities (wall-clock, from proxy
	// start).
	Trace trace.Trace
	// QueueBits bounds the forward queue (tail drop).
	QueueBits int64
	// Delay is added propagation delay on the forward path.
	Delay time.Duration
	// LossProb drops forwarded packets i.i.d. — the LOSS element on a
	// real path.
	LossProb float64
	// Seed drives the loss process.
	Seed int64
	// Chaos, when non-nil and enabled, injects a deterministic fault
	// schedule into both directions: the forward path draws from the
	// config's seed, the return (ack) path from Sub("ack"), and both
	// share the same absolute blackout and stall windows — one outage
	// severs the whole link, as real outages do.
	Chaos *chaos.Config
	// AckChaos, when non-nil and enabled, replaces the derived return-path
	// schedule: acks draw from this config instead of Chaos.Sub("ack").
	// This is how an asymmetric menu (e.g. heavy ack-loss bursts over a
	// clean-ish forward path) is expressed.
	AckChaos *chaos.Config
}

// Proxy is a mahimahi-style UDP link emulator: datagrams arriving on
// the client-facing socket traverse a trace-driven bottleneck queue
// (plus delay and stochastic loss) before being forwarded to the target;
// datagrams from the target return to the most recent client directly.
// One Proxy emulates one direction of one link, which matches the
// paper's model of a lossless, instant return path (§3.4).
//
// Both sockets are read through wire.ReadLoop, so a transient error — the
// target's port unbound for a while, say — is counted and retried, never
// the end of a direction. Close is idempotent and may be called
// concurrently with Run (or without ever calling Run); Run returns nil
// promptly after Close or context cancellation, with every goroutine it
// started joined.
type Proxy struct {
	cfg      ProxyConfig
	listen   *net.UDPConn
	upstream *net.UDPConn

	closeOnce sync.Once
	closed    chan struct{}
	// delivWG tracks in-flight delayed deliveries (propagation delay,
	// chaos reordering) so Run's shutdown joins them too.
	delivWG sync.WaitGroup

	mu       sync.Mutex
	client   *net.UDPAddr
	q        [][]byte
	usedBits int64
	rng      *rand.Rand

	// fwdInj/ackInj inject the chaos schedule; each is owned by exactly
	// one goroutine (scheduler / returnPath). Read their stats only
	// after Run returns.
	fwdInj, ackInj *chaos.Injector

	// stats is written from the proxy's goroutines (including
	// delayed-delivery timers) while callers poll, so it is guarded by
	// mu; read it through Stats.
	stats ProxyStats
}

// ProxyStats is the proxy's datagram tallies. Every datagram read from a
// client ends in exactly one of them or in the forward injector's drop
// tallies: once Run has returned, Received = Dropped + Lost + Forwarded +
// WriteFailed + Unsent + the injector's Dropped + Blackholed − Duplicated
// (see ChaosStats).
type ProxyStats struct {
	// Received counts datagrams read from clients.
	Received int64
	// Dropped counts tail drops at the emulated queue, Lost the LOSS
	// element's drops.
	Dropped, Lost int64
	// Forwarded counts datagrams written to the target, WriteFailed
	// writes the target's socket refused (nobody bound there, say).
	Forwarded, WriteFailed int64
	// Unsent counts datagrams accepted but never written: still queued,
	// or held back by a delay or stall when the proxy shut down.
	Unsent int64
	// ReadRetries counts transient read errors, on either socket, that
	// were retried with back-off.
	ReadRetries int64
}

// Stats reports the proxy's tallies so far; safe to poll while Run runs.
func (p *Proxy) Stats() ProxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Unsent += int64(len(p.q))
	return st
}

// count adds one to a field of p.stats.
func (p *Proxy) count(c *int64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}

// ChaosStats reports the fault injectors' tallies for the forward and
// return paths. Only valid after Run has returned; zero-valued when the
// proxy runs without chaos.
func (p *Proxy) ChaosStats() (fwd, ack chaos.Stats) {
	if p.fwdInj != nil {
		fwd = p.fwdInj.Stats
	}
	if p.ackInj != nil {
		ack = p.ackInj.Stats
	}
	return fwd, ack
}

// NewProxy creates a proxy listening on listenAddr and forwarding to
// targetAddr.
func NewProxy(listenAddr, targetAddr string, cfg ProxyConfig) (*Proxy, error) {
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	lc, err := net.ListenPacket("udp", listenAddr)
	if err != nil {
		return nil, err
	}
	uc, err := net.Dial("udp", targetAddr)
	if err != nil {
		lc.Close()
		return nil, err
	}
	if cfg.QueueBits <= 0 {
		cfg.QueueBits = units.BytesToBits(1 << 20)
	}
	p := &Proxy{
		cfg:      cfg,
		listen:   lc.(*net.UDPConn),
		upstream: uc.(*net.UDPConn),
		closed:   make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		p.fwdInj = chaos.New(*cfg.Chaos)
		p.ackInj = chaos.New(cfg.Chaos.Sub("ack"))
	}
	if cfg.AckChaos != nil && cfg.AckChaos.Enabled() {
		p.ackInj = chaos.New(*cfg.AckChaos)
	}
	return p, nil
}

// Addr reports the client-facing address (useful with ":0" listeners).
func (p *Proxy) Addr() *net.UDPAddr { return p.listen.LocalAddr().(*net.UDPAddr) }

// Close releases both sockets and unblocks Run. Safe to call any number
// of times, from any goroutine.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.listen.Close()
		p.upstream.Close()
	})
}

// Run operates the proxy until ctx is cancelled or Close is called. It
// returns nil in both cases, after joining every goroutine it started
// (including in-flight delayed deliveries).
func (p *Proxy) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); p.clientReader(ctx) }()
	go func() { defer wg.Done(); p.scheduler(ctx, start) }()
	go func() { defer wg.Done(); p.returnPath(ctx, start) }()
	select {
	case <-ctx.Done():
	case <-p.closed:
		cancel()
	}
	wg.Wait()
	p.delivWG.Wait()
	return nil
}

// retried counts one transient read error (wire.ReadLoop's callback).
func (p *Proxy) retried() { p.count(&p.stats.ReadRetries) }

// clientReader enqueues client datagrams onto the emulated link.
func (p *Proxy) clientReader(ctx context.Context) {
	wire.ReadLoop(ctx, p.listen, p.retried, func(dg []byte, from *net.UDPAddr) error {
		bits := units.BytesToBits(len(dg))
		p.mu.Lock()
		defer p.mu.Unlock()
		p.stats.Received++
		p.client = from
		if p.usedBits+bits > p.cfg.QueueBits {
			p.stats.Dropped++
			return nil
		}
		p.q = append(p.q, append([]byte(nil), dg...))
		p.usedBits += bits
		return nil
	})
}

// scheduler releases one queued datagram per trace opportunity, runs it
// through the forward-path fault injector, and delivers it upstream.
func (p *Proxy) scheduler(ctx context.Context, start time.Time) {
	for {
		elapsed := time.Since(start)
		at, ok := p.cfg.Trace.Next(elapsed)
		if !ok {
			return // finite trace exhausted
		}
		if !wire.Sleep(ctx, at-elapsed) {
			return
		}
		p.mu.Lock()
		if len(p.q) == 0 {
			p.mu.Unlock()
			continue
		}
		payload := p.q[0]
		p.q = p.q[1:]
		p.usedBits -= units.BytesToBits(len(payload))
		p.mu.Unlock()

		if p.cfg.LossProb > 0 && p.rng.Float64() < p.cfg.LossProb {
			p.count(&p.stats.Lost)
			continue
		}
		delay := p.cfg.Delay
		if p.fwdInj != nil {
			nowD := time.Since(start)
			if end, ok := p.fwdInj.StallUntil(nowD); ok {
				// A stalled proxy process: nothing moves until the window
				// ends, then everything resumes (the queue keeps
				// absorbing meanwhile).
				if !wire.Sleep(ctx, end-nowD) {
					p.count(&p.stats.Unsent)
					return
				}
			}
			v := p.fwdInj.Next(time.Since(start))
			if v.Drop {
				continue
			}
			if v.Corrupt {
				v.ApplyCorrupt(payload)
			}
			delay += v.Delay
			if v.Duplicate {
				p.deliverUpstream(payload, delay)
			}
		}
		p.deliverUpstream(payload, delay)
	}
}

// after runs deliver now, or after delay on a timer that Run's shutdown
// joins; a timer that fires once the proxy is closed passes closed=true
// and must not touch the sockets.
func (p *Proxy) after(delay time.Duration, deliver func(closed bool)) {
	if delay <= 0 {
		deliver(false)
		return
	}
	p.delivWG.Add(1)
	time.AfterFunc(delay, func() {
		defer p.delivWG.Done()
		select {
		case <-p.closed:
			deliver(true)
		default:
			deliver(false)
		}
	})
}

// deliverUpstream writes one datagram toward the target, after delay.
// The payload is not copied — each queued item is delivered at most twice
// and corruption is applied before scheduling.
func (p *Proxy) deliverUpstream(payload []byte, delay time.Duration) {
	p.after(delay, func(closed bool) {
		c := &p.stats.Forwarded
		if closed {
			c = &p.stats.Unsent
		} else if _, err := p.upstream.Write(payload); err != nil {
			c = &p.stats.WriteFailed
		}
		p.count(c)
	})
}

// returnPath relays target responses back to the client — the paper's
// lossless, instant acknowledgment path, unless the chaos config says
// otherwise (ack loss is precisely the fault the ISENDER's inference
// must survive).
func (p *Proxy) returnPath(ctx context.Context, start time.Time) {
	wire.ReadLoop(ctx, p.upstream, p.retried, func(dg []byte, _ *net.UDPAddr) error {
		p.mu.Lock()
		client := p.client
		p.mu.Unlock()
		if client == nil {
			return nil
		}
		var delay time.Duration
		if p.ackInj != nil {
			v := p.ackInj.Next(time.Since(start))
			if v.Drop {
				return nil
			}
			if v.Corrupt {
				v.ApplyCorrupt(dg)
			}
			delay = v.Delay
			if v.Duplicate {
				p.deliverClient(client, dg, delay)
			}
		}
		p.deliverClient(client, dg, delay)
		return nil
	})
}

// deliverClient writes one datagram back to the client after delay,
// copying it when it must outlive the reader's buffer.
func (p *Proxy) deliverClient(client *net.UDPAddr, payload []byte, delay time.Duration) {
	if delay > 0 {
		payload = append([]byte(nil), payload...)
	}
	p.after(delay, func(closed bool) {
		if !closed {
			p.listen.WriteToUDP(payload, client)
		}
	})
}
