package core_test

import (
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/experiments"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// countingBelief counts the Support calls on the belief it decorates. It
// embeds the interface, as a tracing decorator does, so every other call
// reaches the belief untouched.
type countingBelief struct {
	belief.Belief
	supports int
}

func (c *countingBelief) Support() []belief.Hypothesis {
	c.supports++
	return c.Belief.Support()
}

// TestWakePathNeverExpandsTheSupport: the wake path reads a belief through
// its View and never asks for Support. A solo Figure 3 sender at α = 1,
// its Estimates read after every wake as the experiments read them, runs
// 60 s against the truth; a 4-member fleet runs 20 s. Neither belief
// decorator may see a Support call.
func TestWakePathNeverExpandsTheSupport(t *testing.T) {
	cfg := experiments.Fig3Config(1, 1, 60*time.Second)
	cfg.Plan.Util = cfg.Utility
	states, _ := cfg.Prior.Enumerate()
	solo := &countingBelief{Belief: belief.NewExact(states, cfg.BeliefCfg)}
	sender := core.NewSender(solo, cfg.Plan)
	truth := model.NewTruth(cfg.Actual, cfg.PingerOnStart, cfg.Gate, cfg.HalfPeriod, rand.New(rand.NewSource(cfg.Seed)))
	var now time.Duration
	var inject []model.Send
	var acks []packet.Ack
	wakes, sent := 0, 0
	for {
		act := sender.Wake(now, acks)
		wakes++
		sent += len(act.Sends)
		if e := sender.Estimates(); e.N == 0 {
			t.Fatalf("wake %d: an empty posterior", wakes)
		}
		inject = append(inject[:0], act.Sends...)
		next := max(act.WakeAt, now+10*time.Millisecond)
		if tn := truth.NextTransition(); tn > now && tn < next {
			next = tn
		}
		if next > cfg.Duration {
			break
		}
		acks = acks[:0]
		for _, ev := range truth.AdvanceTo(next, inject) {
			if ev.Kind == model.OwnDelivered {
				acks = append(acks, packet.Ack{Flow: packet.FlowSelf, Seq: ev.Seq, ReceivedAt: ev.At})
			}
		}
		now = next
	}
	if solo.supports != 0 || wakes < 100 || sent < 20 {
		t.Fatalf("solo Figure 3 sender: %d Support calls over %d wakes and %d sends, want none over at least 100 and 20", solo.supports, wakes, sent)
	}

	fl := fleet.New(fleet.Config{N: 4, Seed: 7})
	var members []*countingBelief
	for _, m := range fl.Members {
		c := &countingBelief{Belief: m.Sender.Belief}
		m.Sender.Belief = c
		members = append(members, c)
	}
	fl.Run(20 * time.Second)
	for i, c := range members {
		if c.supports != 0 || fl.Members[i].Sender.Wakes < 10 {
			t.Fatalf("fleet member %d: %d Support calls over %d wakes, want none over at least 10", i, c.supports, fl.Members[i].Sender.Wakes)
		}
	}
}
