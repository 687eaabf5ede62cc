package experiments

import (
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/elements"
	"modelcc/internal/fleet"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/sim"
	"modelcc/internal/stats"
	"modelcc/internal/tcp"
	"modelcc/internal/utility"
)

// The coexistence experiments answer §3.5's open question — "we have not
// yet experimented with any networks that contain more than one ISENDER,
// or any network elements performing TCP" — on the discrete-event
// substrate. Each ISENDER models the *other* foreground flow as the
// PINGER it knows how to reason about; the mismatch (the competitor is
// not isochronous) is absorbed by the soft observation likelihood
// (belief.Config.SoftSigma), and the belief runs in Relax mode so a
// surprise cannot abort the run.
//
// The two-flow experiments are now thin layers over internal/fleet: the
// sender-to-simulator adapter that used to live here is fleet.Member,
// and RunTwoISenders is literally a fleet of N = 2 (FairnessSweep scales
// the same machinery to hundreds of senders).

// CoexistResult summarizes a two-flow sharing run.
type CoexistResult struct {
	// ARate and BRate are the two flows' delivered packet rates over
	// the second half of the run (after convergence), in packets/s.
	ARate, BRate float64
	// Drops counts shared-buffer tail drops.
	Drops int
	// JainIndex is Jain's fairness index over the two rates.
	JainIndex float64
}

// RunTwoISenders shares one 12 kbit/s bottleneck between two ISENDERs
// with the same α=1 utility, each modeling the other as cross traffic.
// It is a fleet of two: the default fleet parameters reproduce the
// original two-flow topology exactly (6000 bit/s fair share each,
// 96,000-bit shared buffer).
func RunTwoISenders(seed int64, duration time.Duration) CoexistResult {
	fl := fleet.New(fleet.Config{N: 2, Seed: seed})
	fl.Run(duration)

	a, b := fl.Members[0], fl.Members[1]
	half := duration / 2
	res := CoexistResult{
		ARate: a.AckedSeq.Rate(half, duration),
		BRate: b.AckedSeq.Rate(half, duration),
		Drops: fl.Drops(),
	}
	res.JainIndex = stats.JainIndex([]float64{res.ARate, res.BRate})
	return res
}

// RunISenderVsTCP shares the bottleneck between an ISENDER (α = 1) and a
// Reno sender with unbounded appetite. The ISENDER rides the same
// fleet.Member adapter the fleet uses, standalone (immediate wake per
// acknowledgment); the competitor is a real TCP state machine rather
// than another member, so the wiring stays bespoke.
func RunISenderVsTCP(seed int64, duration time.Duration) CoexistResult {
	loop := sim.New(seed)

	states, _ := fleet.Prior(12000, 96000, 2).Enumerate()
	bel := belief.NewExact(states, fleet.DefaultBeliefConfig(2))
	u := utility.Default()
	u.Alpha = 1
	plan := planner.DefaultConfig()
	plan.Util = u

	var is *fleet.Member
	var reno *tcp.Sender
	renoRecv := tcp.NewReceiver(loop, nil)

	isRecv := elements.NewReceiver(loop, func(ack packet.Ack) {
		is.OnAck(ack)
	})
	// TCP segments route to the TCP receiver, the ISENDER's to its own.
	div := elements.NewDiverter(packet.FlowOther, elements.NodeFunc(renoRecv.Receive), isRecv)
	buf, _ := elements.NewBottleneck(loop, 96000, 12000, div)

	renoRecv.OnAck = func(ackNext int64, echoSentAt int64) {
		reno.OnAck(ackNext, time.Duration(echoSentAt))
	}

	is = fleet.NewMember(loop, core.NewSender(bel, plan), packet.FlowSelf, buf)
	reno = tcp.NewSender(loop, buf, packet.FlowOther, tcp.Config{})

	is.Start(0)
	loop.After(0, reno.Start)
	loop.Run(duration)

	half := duration / 2
	res := CoexistResult{
		ARate: is.AckedSeq.Rate(half, duration),
		BRate: float64(reno.SndUna()) / duration.Seconds(),
		Drops: buf.Drops[packet.FlowSelf] + buf.Drops[packet.FlowOther],
	}
	res.JainIndex = stats.JainIndex([]float64{res.ARate, res.BRate})
	return res
}
