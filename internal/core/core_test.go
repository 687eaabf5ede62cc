package core

import (
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/rollout"
)

func knownIdleBelief() belief.Belief {
	s := model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000}, false)
	return belief.NewExact([]model.State{s}, belief.Config{})
}

func TestSenderSendsOnFirstWake(t *testing.T) {
	s := NewSender(knownIdleBelief(), planner.DefaultConfig())
	act := s.Wake(0, nil)
	if len(act.Sends) == 0 {
		t.Fatal("known idle link: sender sent nothing on first wake")
	}
	if act.WakeAt <= 0 {
		t.Errorf("WakeAt = %v, want future", act.WakeAt)
	}
	if s.Sent != int64(len(act.Sends)) {
		t.Errorf("Sent = %d, emitted %d", s.Sent, len(act.Sends))
	}
	// Sequence numbers are consecutive from zero.
	for i, snd := range act.Sends {
		if snd.Seq != int64(i) || snd.At != 0 {
			t.Errorf("send %d = %+v", i, snd)
		}
	}
}

func TestSenderPacesNotFloods(t *testing.T) {
	s := NewSender(knownIdleBelief(), planner.DefaultConfig())
	act := s.Wake(0, nil)
	// The planner starts pacing once its committed sends fill the
	// pipe; a single wake must never emit anywhere near MaxBurst.
	if len(act.Sends) >= s.MaxBurst {
		t.Errorf("wake emitted %d packets (burst cap %d): pacing broken", len(act.Sends), s.MaxBurst)
	}
}

func TestSenderAckDrivenProgress(t *testing.T) {
	s := NewSender(knownIdleBelief(), planner.DefaultConfig())
	act := s.Wake(0, nil)
	sent := len(act.Sends)

	// Acknowledge the first packet at its true delivery time (1 s) and
	// wake: the sender must keep making progress.
	ack := packet.Ack{Seq: 0, ReceivedAt: time.Second}
	act2 := s.Wake(time.Second, []packet.Ack{ack})
	total := sent + len(act2.Sends)
	for i := 2; i < 8; i++ {
		at := time.Duration(i) * time.Second
		act = s.Wake(at, []packet.Ack{{Seq: int64(i - 1), ReceivedAt: at}})
		total += len(act.Sends)
	}
	if s.NextSeq() < 6 {
		t.Errorf("after 8s of acks, only %d packets committed (want ~ link rate)", s.NextSeq())
	}
	if s.Acked != 7 {
		t.Errorf("Acked = %d, want 7", s.Acked)
	}
	_ = total
}

func TestSenderWithPolicyCache(t *testing.T) {
	s := NewSender(knownIdleBelief(), planner.DefaultConfig())
	s.Guard.Cache = planner.NewPolicyCache()
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * time.Second
		var acks []packet.Ack
		if i > 0 {
			acks = []packet.Ack{{Seq: int64(i - 1), ReceivedAt: at}}
		}
		s.Wake(at, acks)
	}
	if s.Guard.Cache.Hits == 0 {
		t.Error("steady-state wakes never hit the policy cache")
	}
}

func TestSenderEstimates(t *testing.T) {
	s := NewSender(knownIdleBelief(), planner.DefaultConfig())
	e := s.Estimates()
	if e.N != 1 || e.ELinkRate != 12000 {
		t.Errorf("estimates = %+v", e)
	}
}

// TestSendingWakeSteadyStateAllocs: once warm, a wake that sends — the
// belief update, every decision and the sends it returns — allocates
// nothing, on a sender with its own pool and neither cache nor table:
// Action.Sends is the sender's one send buffer, reused by every wake.
func TestSendingWakeSteadyStateAllocs(t *testing.T) {
	pool := rollout.New(1)
	plan := planner.DefaultConfig()
	plan.Workers, plan.Pool = 1, pool
	idle := model.Initial(model.Params{LinkRate: 12000, BufferCapBits: 96000}, false)
	s := NewSender(belief.NewExact([]model.State{idle}, belief.Config{Workers: 1, Pool: pool}), plan)
	s.Wake(0, nil)
	// The link carries one packet a second, and each wake acknowledges
	// the packet it delivered.
	acks := make([]packet.Ack, 1)
	k, quiet := 0, 0
	wake := func() {
		k++
		at := time.Duration(k) * time.Second
		acks[0] = packet.Ack{Seq: int64(k - 1), ReceivedAt: at}
		if len(s.Wake(at, acks).Sends) == 0 {
			quiet++
		}
	}
	for k < 20 {
		wake()
	}
	quiet = 0
	if allocs := testing.AllocsPerRun(50, wake); allocs != 0 {
		t.Errorf("a warm sending wake allocates %v times, want 0", allocs)
	}
	if quiet > 0 {
		t.Errorf("%d of 51 measured wakes sent nothing", quiet)
	}
}
