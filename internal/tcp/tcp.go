// Package tcp implements loss-based TCP congestion-control baselines
// (Tahoe, Reno, NewReno) over the discrete-event element substrate.
//
// The paper's Figure 1 motivates the whole architecture by showing what a
// loss-based sender does to a deeply buffered cellular link: it fills the
// buffer until round-trip times reach tens of seconds. These senders
// reproduce that behaviour, serve as the comparison baseline in the
// benchmark harness, and play the "network elements performing TCP" role
// in the §3.5 coexistence experiment.
//
// The implementation follows the classic algorithms (Jacobson 1988, RFC
// 5681, RFC 6582 for NewReno's partial-ack handling, RFC 6298 for RTO
// estimation) with an infinite-backlog application, which is exactly the
// "TCP download" of Figure 1.
package tcp

import (
	"time"

	"modelcc/internal/elements"
	"modelcc/internal/packet"
	"modelcc/internal/sim"
	"modelcc/internal/stats"
)

// Variant selects the congestion-control flavour.
type Variant uint8

// Supported variants.
const (
	// Tahoe: slow start, congestion avoidance, fast retransmit; any
	// loss collapses cwnd to 1.
	Tahoe Variant = iota
	// Reno adds fast recovery.
	Reno
	// NewReno adds partial-ack handling in fast recovery.
	NewReno
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Tahoe:
		return "tahoe"
	case Reno:
		return "reno"
	case NewReno:
		return "newreno"
	default:
		return "tcp(?)"
	}
}

// Config tunes a Sender.
type Config struct {
	// Variant selects the algorithm; the zero value is Tahoe.
	Variant Variant
}

// Every sender's fixed segment size, starting window and RTO floor.
const (
	// mss is the segment size in bytes.
	mss = packet.DefaultSizeBytes
	// initialCwnd is the initial window in segments.
	initialCwnd = 2
	// initialSSThresh is the initial slow-start threshold in segments.
	initialSSThresh = 64
	// minRTO floors the retransmission timeout: the common simulator
	// setting; RFC 6298's 1 s floor just slows the figures down.
	minRTO = 200 * time.Millisecond
)

// Sender is a TCP sender with an infinite backlog.
type Sender struct {
	loop *sim.Loop
	out  elements.Node
	flow packet.FlowID
	cfg  Config

	cwnd       float64
	ssthresh   float64
	nextSeq    int64 // next never-sent sequence
	sndUna     int64 // lowest unacknowledged sequence
	dupAcks    int
	inRecovery bool
	recover    int64 // NewReno: highest seq sent when loss was detected

	srtt, rttvar time.Duration
	rto          time.Duration
	hasRTT       bool
	rtoTimer     *sim.Timer
	backoff      int

	sentAt  map[int64]time.Duration
	retxSeq map[int64]bool

	// RTT records one sample per acceptable acknowledgment — the
	// series Figure 1 plots.
	RTT stats.Series
	// Cwnd records the window after every change, in segments.
	Cwnd stats.Series
	// Sent, Retransmits, Timeouts, FastRetransmits count events.
	Sent            int64
	Retransmits     int64
	Timeouts        int64
	FastRetransmits int64
}

// NewSender returns a TCP sender that emits segments of the given flow
// into out. Call Start to begin transmitting.
func NewSender(loop *sim.Loop, out elements.Node, flow packet.FlowID, cfg Config) *Sender {
	s := &Sender{
		loop:     loop,
		out:      out,
		flow:     flow,
		cfg:      cfg,
		cwnd:     initialCwnd,
		ssthresh: initialSSThresh,
		rto:      time.Second,
		sentAt:   make(map[int64]time.Duration),
		retxSeq:  make(map[int64]bool),
	}
	s.RTT.Name = "rtt"
	s.Cwnd.Name = "cwnd"
	s.rtoTimer = sim.NewTimer(loop, s.onRTO)
	return s
}

// SndUna reports the lowest unacknowledged sequence number (delivered
// in-order bytes = SndUna segments).
func (s *Sender) SndUna() int64 { return s.sndUna }

// Start transmits the initial window.
func (s *Sender) Start() { s.fill() }

// inflight reports outstanding segments.
func (s *Sender) inflight() int64 { return s.nextSeq - s.sndUna }

// fill transmits new segments while the window allows.
func (s *Sender) fill() {
	for float64(s.inflight()) < s.cwnd {
		s.transmit(s.nextSeq, false)
		s.nextSeq++
	}
}

// transmit emits one segment and manages the RTO timer.
func (s *Sender) transmit(seq int64, isRetx bool) {
	p := packet.Packet{Flow: s.flow, Seq: seq, SizeBytes: mss, SentAt: s.loop.Now()}
	if isRetx {
		s.retxSeq[seq] = true
		s.Retransmits++
	} else {
		s.sentAt[seq] = s.loop.Now()
	}
	s.Sent++
	if !s.rtoTimer.Armed() {
		s.rtoTimer.Arm(s.rto)
	}
	s.out.Receive(p)
}

// OnAck processes a cumulative acknowledgment: ackNext is the receiver's
// next expected sequence number; echoSentAt echoes the send timestamp of
// the segment that triggered the acknowledgment.
func (s *Sender) OnAck(ackNext int64, echoSentAt time.Duration) {
	now := s.loop.Now()

	// RTT sampling with Karn's rule: skip samples from retransmitted
	// segments (their echo is ambiguous).
	if trig := ackNext - 1; trig >= 0 && !s.retxSeq[trig] {
		s.sampleRTT(now - echoSentAt)
	} else if !s.retxSeq[ackNext] {
		// Duplicate acks echo the out-of-order segment's timestamp;
		// still a valid one-way-plus-return sample when that segment
		// was not a retransmission.
		s.sampleRTT(now - echoSentAt)
	}

	switch {
	case ackNext > s.sndUna:
		s.onNewAck(ackNext)
	case ackNext == s.sndUna:
		s.onDupAck()
	}
	s.fill()
}

func (s *Sender) onNewAck(ackNext int64) {
	acked := ackNext - s.sndUna
	for seq := s.sndUna; seq < ackNext; seq++ {
		delete(s.sentAt, seq)
		delete(s.retxSeq, seq)
	}
	s.sndUna = ackNext
	s.dupAcks = 0
	s.backoff = 0

	if s.inRecovery {
		if s.cfg.Variant == NewReno && ackNext <= s.recover {
			// Partial ack: retransmit the next hole, deflate by the
			// amount acked, stay in recovery (RFC 6582).
			s.transmit(s.sndUna, true)
			s.cwnd -= float64(acked)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.cwnd++ // for the retransmitted segment
			s.rtoTimer.Arm(s.rto)
			s.logCwnd()
			return
		}
		// Full ack (or plain Reno): leave recovery, deflate.
		s.inRecovery = false
		s.cwnd = s.ssthresh
	} else if s.cwnd < s.ssthresh {
		s.cwnd += float64(acked) // slow start
	} else {
		s.cwnd += float64(acked) / s.cwnd // congestion avoidance
	}
	s.logCwnd()

	if s.inflight() > 0 {
		s.rtoTimer.Arm(s.rto)
	} else {
		s.rtoTimer.Stop()
	}
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inRecovery {
		if s.cfg.Variant != Tahoe {
			s.cwnd++ // inflate per extra dup ack
			s.logCwnd()
		}
		return
	}
	if s.dupAcks < 3 {
		return
	}
	// Fast retransmit.
	s.FastRetransmits++
	s.ssthresh = maxF(float64(s.inflight())/2, 2)
	s.recover = s.nextSeq - 1
	s.transmit(s.sndUna, true)
	if s.cfg.Variant == Tahoe {
		s.cwnd = 1
		s.dupAcks = 0
	} else {
		s.inRecovery = true
		s.cwnd = s.ssthresh + 3
	}
	s.rtoTimer.Arm(s.rto)
	s.logCwnd()
}

func (s *Sender) onRTO() {
	if s.inflight() == 0 {
		return
	}
	s.Timeouts++
	s.ssthresh = maxF(float64(s.inflight())/2, 2)
	s.cwnd = 1
	s.dupAcks = 0
	s.inRecovery = false
	s.backoff++
	if s.backoff > 6 {
		s.backoff = 6
	}
	s.rto *= 2
	if s.rto > 60*time.Second {
		s.rto = 60 * time.Second
	}
	s.transmit(s.sndUna, true)
	s.rtoTimer.Arm(s.rto)
	s.logCwnd()
}

// sampleRTT updates srtt/rttvar/rto per RFC 6298 and records the sample.
func (s *Sender) sampleRTT(rtt time.Duration) {
	if rtt < 0 {
		return
	}
	if !s.hasRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasRTT = true
	} else {
		dev := s.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		s.rttvar = (3*s.rttvar + dev) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	s.RTT.Add(s.loop.Now(), rtt.Seconds())
}

func (s *Sender) logCwnd() {
	s.Cwnd.Add(s.loop.Now(), s.cwnd)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
