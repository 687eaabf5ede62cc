// Package transport runs the ISENDER over real UDP sockets: the same
// core.Sender the simulator drives, now driven by the wall clock and a
// net.UDPConn. Together with the trace-driven proxy in internal/emu it
// forms the end-to-end demonstration the reproduction bands call for:
// "UDP transport easy; trace-driven emulation feasible".
//
// Clocking: all times are durations since the sender's epoch. The
// receiver timestamps acknowledgments with absolute wall-clock
// nanoseconds and the sender rebases them, so on one machine (loopback
// experiments) clocks agree exactly. Cross-machine clock skew is not
// modelled (the paper assumes synchronized clocks and only suggests skew
// as an extension, §3.4): the soft likelihood absorbs it. Observation
// matching MUST use that soft likelihood (belief.Config's SoftSigma)
// because OS scheduling adds jitter the model does not represent.
//
// Failure model: both loops assume the network under them misbehaves —
// reads go through wire.ReadLoop (short poll deadlines so cancellation
// is never missed, transient socket errors retried with capped backoff
// rather than killing the run), decode failures are counted and dropped,
// and a non-monotone wall clock (NTP steps, VM migration) is clamped
// before it can reach the belief, which requires monotone time. See
// README.md ("Failure model").
//
// RunLoopback is the one place a receiver, an emulated link and a sender
// are wired together (loopback.go); commands and tests call it.
package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"modelcc/internal/core"
	"modelcc/internal/packet"
	"modelcc/internal/wire"
)

// Receiver is the UDP RECEIVER (§3.4): it acknowledges every data
// packet with its receive time and sequence number.
type Receiver struct {
	conn *net.UDPConn

	// OnData, when non-nil, observes every accepted data packet: its
	// sequence number, the sender's stamp (nanoseconds since the sender's
	// epoch) and the receive instant (absolute wall-clock nanoseconds).
	// Soak harnesses meter delivered utility here — ground truth that ack
	// loss on the return path cannot distort. Called from Run's goroutine.
	OnData func(seq, sentNanos, recvNanos int64)
}

// NewReceiver wraps a bound UDP socket.
func NewReceiver(conn *net.UDPConn) *Receiver {
	return &Receiver{conn: conn}
}

// Run serves until ctx is cancelled or the socket is closed. It returns
// nil in both cases, and leaves no goroutine behind.
func (r *Receiver) Run(ctx context.Context) error {
	ackBuf := make([]byte, wire.HeaderLen)
	return wire.ReadLoop(ctx, r.conn, nil, func(dg []byte, from *net.UDPAddr) error {
		typ, data, _, err := wire.Decode(dg)
		if err != nil || typ != wire.TypeData {
			return nil // corrupted or foreign: drop silently like any UDP service
		}
		recvNanos := time.Now().UnixNano()
		if r.OnData != nil {
			r.OnData(data.Seq, data.SentNanos, recvNanos)
		}
		ack := wire.Ack{
			Seq:           data.Seq,
			EchoSentNanos: data.SentNanos,
			ReceivedNanos: time.Now().UnixNano(),
		}
		out, err := wire.EncodeAck(ackBuf, ack)
		if err != nil {
			return fmt.Errorf("transport: encode ack: %w", err)
		}
		// A failed write is a lost acknowledgment, which the sender's
		// belief already models (an ICMP-induced error on a connected path
		// is transient; a closed socket ends the loop at its next read).
		_, _ = r.conn.WriteToUDP(out, from)
		return nil
	})
}

// SenderStats summarizes a transport run.
type SenderStats struct {
	// Sent and Acked count packets.
	Sent, Acked int64
	// MeanOWD is the mean observed one-way delay.
	MeanOWD time.Duration
	// Wakes counts sender wakeups.
	Wakes int64
	// ReadRetries counts transient ack-stream read errors that were
	// retried with backoff.
	ReadRetries int64
	// DecodeErrors counts datagrams on the ack stream that failed
	// wire.Decode — corruption made visible, not fatal.
	DecodeErrors int64
	// ClockClamps counts wakeups where the wall clock ran backwards and
	// was clamped to keep belief time monotone.
	ClockClamps int64
}

// Sender drives a core.Sender over a connected UDP socket.
type Sender struct {
	conn  *net.UDPConn
	s     *core.Sender
	padTo int
	epoch time.Time

	// Clock, when non-nil, replaces time-since-epoch as the run's time
	// source (chaos tests inject jumping clocks here). Whatever the
	// source, Run clamps it monotone before it reaches the belief.
	Clock func() time.Duration
}

// NewSender wraps a connected UDP socket around an ISENDER. padTo pads
// data datagrams to the uniform size the sender's model assumes
// (typically 1500); 0 disables padding.
func NewSender(conn *net.UDPConn, s *core.Sender, padTo int) *Sender {
	return &Sender{conn: conn, s: s, padTo: padTo}
}

// Run executes the send loop for the given duration (or until ctx is
// cancelled, returning ctx.Err()). All goroutines it starts are joined
// before it returns.
func (s *Sender) Run(ctx context.Context, duration time.Duration) (SenderStats, error) {
	s.epoch = time.Now()
	var stats SenderStats

	acksCh := make(chan packet.Ack, 256)
	readCtx, stopRead := context.WithCancel(ctx)
	defer stopRead()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.readAcks(readCtx, acksCh, &stats)
	}()
	defer wg.Wait()
	defer stopRead() // cancel before joining (defers run LIFO)

	sendBuf := make([]byte, s.padTo+wire.HeaderLen)
	raw := s.Clock
	if raw == nil {
		raw = func() time.Duration { return time.Since(s.epoch) }
	}
	var lastNow time.Duration
	// The belief panics on time regressions (they are driver bugs in the
	// DES world); on a real host the clock itself is untrusted, so clamp.
	now := func() time.Duration {
		t := raw()
		if t < lastNow {
			stats.ClockClamps++
			return lastNow
		}
		lastNow = t
		return t
	}

	transmit := func(seq int64, at time.Duration) error {
		dg, err := wire.EncodeData(sendBuf, wire.Data{Seq: seq, SentNanos: int64(at)}, s.padTo)
		if err != nil {
			return err
		}
		_, err = s.conn.Write(dg)
		return err
	}

	var owdSum time.Duration
	wake := func(acks []packet.Ack) (time.Duration, error) {
		stats.Wakes++
		act := s.s.Wake(now(), acks)
		for _, snd := range act.Sends {
			if err := transmit(snd.Seq, snd.At); err != nil {
				return 0, fmt.Errorf("transport: send: %w", err)
			}
			stats.Sent++
		}
		return act.WakeAt, nil
	}

	wakeAt, err := wake(nil)
	if err != nil {
		return stats, err
	}
	// The wake timer is armed with the logical distance to wakeAt, not
	// the wall-clock instant epoch+wakeAt: when an injected (or NTP-
	// stepped) clock jumps backwards, the clamped logical clock freezes
	// while wall time keeps running, and an absolute-instant timer would
	// land permanently in the past — a busy spin until the wall clock
	// catches back up. The floor keeps a zero-distance wake from spinning
	// the loop.
	wakeDelay := func() time.Duration {
		d := wakeAt - lastNow
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d
	}
	deadline := time.NewTimer(wakeDelay())
	defer deadline.Stop()
	end := time.NewTimer(duration)
	defer end.Stop()

	for {
		var acks []packet.Ack
		select {
		case <-ctx.Done():
			return stats, ctx.Err()
		case <-end.C:
			return stats, nil
		case <-deadline.C:
		case a := <-acksCh:
			acks = append(acks, a)
			// Batch any other acks already queued.
			for len(acksCh) > 0 {
				acks = append(acks, <-acksCh)
			}
			// An acknowledgment whose receive stamp regressed (clock
			// jump on the echo path, duplicate surfacing late) must not
			// drive belief time backwards; the clamp in now() covers the
			// update instant, and SoftSigma covers the stamps.
			for _, ack := range acks {
				stats.Acked++
				owdSum += ack.ReceivedAt - ack.SentAt
				stats.MeanOWD = owdSum / time.Duration(stats.Acked)
			}
		}
		if wakeAt, err = wake(acks); err != nil {
			return stats, err
		}
		deadline.Reset(wakeDelay())
	}
}

// readAcks decodes acknowledgments and rebases the receiver's absolute
// timestamps onto the sender epoch. Transient read errors are retried
// (wire.ReadLoop) — on a chaotic path the ack stream stalls and
// recovers; it must never silently wedge the sender into flying blind.
func (s *Sender) readAcks(ctx context.Context, out chan<- packet.Ack, stats *SenderStats) {
	wire.ReadLoop(ctx, s.conn, func() { stats.ReadRetries++ }, func(dg []byte, _ *net.UDPAddr) error {
		typ, _, ack, err := wire.Decode(dg)
		if err != nil || typ != wire.TypeAck {
			stats.DecodeErrors++
			return nil
		}
		rebased := packet.Ack{
			Flow:       packet.FlowSelf,
			Seq:        ack.Seq,
			SentAt:     time.Duration(ack.EchoSentNanos),
			ReceivedAt: time.Duration(ack.ReceivedNanos - s.epoch.UnixNano()),
		}
		select {
		case out <- rebased:
		case <-ctx.Done():
		}
		return nil
	})
}
