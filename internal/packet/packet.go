// Package packet defines the packet type shared by the discrete-event
// simulator, the inference model, and the transports.
//
// The paper assumes the sender always transmits packets of uniform length
// (§3.2); the default size is the 1500-byte MTU used throughout the
// evaluation, so one packet is 12,000 bits and the Figure 2 link carries
// exactly one packet per second.
package packet

import (
	"fmt"
	"time"
)

// DefaultSizeBytes is the uniform packet size assumed by the paper.
const DefaultSizeBytes = 1500

// DefaultSizeBits is DefaultSizeBytes expressed in bits.
const DefaultSizeBits = DefaultSizeBytes * 8

// FlowID identifies the originating flow of a packet. The experiments use
// a small number of well-known flows; the fleet experiments
// (internal/fleet) assign one FlowID per sender, so the type is wide
// enough for thousands of concurrent flows in one process.
type FlowID uint32

// Well-known flows used by the experiments.
const (
	// FlowSelf is the ISENDER's own data flow.
	FlowSelf FlowID = iota
	// FlowCross is the PINGER's cross traffic.
	FlowCross
	// FlowOther is a second foreground flow (used by the coexistence
	// experiments, where two ISENDERs or an ISENDER and a TCP share a
	// bottleneck).
	FlowOther
)

// String implements fmt.Stringer.
func (f FlowID) String() string {
	switch f {
	case FlowSelf:
		return "self"
	case FlowCross:
		return "cross"
	case FlowOther:
		return "other"
	default:
		return fmt.Sprintf("flow(%d)", uint32(f))
	}
}

// Packet is a unit of data moving through a simulated or emulated network.
// Packets are plain values: elements copy them freely, and the inference
// model clones slices of them when a hypothesis forks.
type Packet struct {
	// Flow identifies the sender.
	Flow FlowID
	// Seq is the sequence number within the flow, starting at 0.
	Seq int64
	// SizeBytes is the payload size in bytes.
	SizeBytes int
	// SentAt is the virtual time the origin emitted the packet.
	SentAt time.Duration
}

// Bits reports the packet size in bits.
func (p Packet) Bits() int64 { return int64(p.SizeBytes) * 8 }

// String implements fmt.Stringer.
func (p Packet) String() string {
	return fmt.Sprintf("%s#%d(%dB@%v)", p.Flow, p.Seq, p.SizeBytes, p.SentAt)
}

// New returns a packet of the default size for the given flow and
// sequence number, stamped with the given send time.
func New(flow FlowID, seq int64, sentAt time.Duration) Packet {
	return Packet{Flow: flow, Seq: seq, SizeBytes: DefaultSizeBytes, SentAt: sentAt}
}

// Ack is the receiver-to-sender notification the paper's RECEIVER conveys:
// the sequence number and the time the packet arrived (§3.4). The return
// path is modeled as lossless and instant in the paper's preliminary
// experiments; experiments.RunChaos drops, duplicates and delays Acks.
type Ack struct {
	// Flow identifies which flow's packet was received.
	Flow FlowID
	// Seq is the received packet's sequence number.
	Seq int64
	// ReceivedAt is the virtual time of arrival at the receiver.
	ReceivedAt time.Duration
	// SentAt echoes the packet's send timestamp so the sender can
	// compute a one-way delay sample without keeping per-packet state.
	SentAt time.Duration
}

// String implements fmt.Stringer.
func (a Ack) String() string {
	return fmt.Sprintf("ack %s#%d rcv=%v", a.Flow, a.Seq, a.ReceivedAt)
}

// Delay reports the packet's one-way delay as observed by the receiver.
func (a Ack) Delay() time.Duration { return a.ReceivedAt - a.SentAt }
