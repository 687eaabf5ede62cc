package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/experiments"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/units"
)

// soloRun is one ISENDER-vs-truth run driven by the benchmark.
type soloRun struct {
	res       experiments.ISenderResult
	out       outcome
	latencies []int64
	rec       *recorder
	fillFrac  float64 // truth buffer occupancy at the end
	sampled   sample  // the belief half-way through, for micro-timings
}

// runSolo is experiments.RunISender with the sender reachable: the same
// exact coupling of truth and sender, line for line, plus the window
// accounting the benchmark reports. Set-up checks on every run that it
// still returns what RunISender returns, field for field.
func runSolo(cfg experiments.ISenderConfig, workers int, rec *recorder, wantSample bool) soloRun {
	cfg.Plan.Util = cfg.Utility
	cfg.Plan.Workers = workers
	cfg.BeliefCfg.Workers = workers
	rng := rand.New(rand.NewSource(cfg.Seed))
	truth := model.NewTruth(cfg.Actual, cfg.PingerOnStart, cfg.Gate, cfg.HalfPeriod, rng)

	states, _ := cfg.Prior.Enumerate()
	exact := belief.NewExact(states, cfg.BeliefCfg)
	sender := core.NewSender(exact, cfg.Plan)
	instrument(sender, rec)

	run := soloRun{rec: rec}
	res := &run.res
	res.AckedSeq.Name = "acked"
	res.SentSeq.Name = "sent"
	res.PPingerOn.Name = "P(pinger on)"
	res.SupportSize.Name = "hypotheses"
	pktBits := float64(cfg.Actual.PktBits())
	var crossBits float64

	now := time.Duration(0)
	var pendingInject []model.Send

	act := sender.Wake(now, nil)
	pendingInject = append(pendingInject, act.Sends...)
	for _, snd := range act.Sends {
		res.SentSeq.Add(snd.At, float64(snd.Seq))
	}
	wakeAt := act.WakeAt
	sampleEstimates := func() {
		e := sender.Estimates()
		res.PPingerOn.Add(now, e.PPingerOn)
		res.SupportSize.Add(now, float64(e.N))
	}
	sampleEstimates()

	for now < cfg.Duration {
		next := cfg.Duration
		if wakeAt > now && wakeAt < next {
			next = wakeAt
		}
		if tn := truth.NextTransition(); tn > now && tn < next {
			next = tn
		}
		evs := truth.AdvanceTo(next, pendingInject)
		pendingInject = pendingInject[:0]
		now = next

		var acks []packet.Ack
		for _, ev := range evs {
			switch ev.Kind {
			case model.OwnDelivered:
				acks = append(acks, packet.Ack{Flow: packet.FlowSelf, Seq: ev.Seq, ReceivedAt: ev.At})
				res.AckedSeq.Add(ev.At, float64(ev.Seq))
				res.Utility += float64(ev.Bits) * cfg.Utility.Discount(ev.Delay)
				run.out.DelaySum += ev.Delay.Seconds()
			case model.CrossDelivered:
				crossBits += float64(ev.Bits)
			}
		}

		if len(acks) > 0 || now >= wakeAt {
			act = sender.Wake(now, acks)
			for _, snd := range act.Sends {
				res.SentSeq.Add(snd.At, float64(snd.Seq))
			}
			pendingInject = append(pendingInject, act.Sends...)
			if act.WakeAt <= now {
				act.WakeAt = now + 10*time.Millisecond
			}
			wakeAt = act.WakeAt
			sampleEstimates()
		}
		if wantSample && run.sampled.sup == nil && now >= cfg.Duration/2 {
			run.sampled = cloneSupport(exact)
		}
	}

	res.Sent = sender.Sent
	res.Acked = sender.Acked
	res.Wakes = sender.Wakes
	res.OwnBufferDrops = truth.OwnBufferDropN
	res.CrossBufferDrops = truth.CrossBufferDropN
	res.CrossDelivered = truth.CrossDeliveredN
	if cfg.Duration > 0 {
		res.OwnThroughput = units.BitRate(float64(res.Acked) * pktBits / cfg.Duration.Seconds())
	}
	res.UpdateCum = exact.Cum

	// Cross packets that arrived at the buffer: every one the truth has
	// settled, plus those still queued or on the link.
	crossHeld := 0
	for _, q := range truth.S.Queued() {
		if !q.Own {
			crossHeld++
		}
	}
	if truth.S.Serving && !truth.S.InService.Own {
		crossHeld++
	}
	g := sender.Guard
	run.latencies = g.Latencies
	run.fillFrac = float64(truth.S.QueueBits) / float64(cfg.Actual.BufferCapBits)
	run.out.VSec = cfg.Duration.Seconds()
	run.out.Utility = res.Utility
	run.out.DeliveredBits = float64(res.Acked) * pktBits
	run.out.LinkBits = float64(cfg.Actual.LinkRate) * cfg.Duration.Seconds()
	run.out.Acks = res.Acked
	run.out.Drops = int64(truth.OwnBufferDropN + truth.CrossBufferDropN)
	run.out.Offered = res.Sent + int64(truth.CrossDeliveredN+truth.CrossLostN+truth.CrossBufferDropN+crossHeld)
	run.out.PerFlow = []float64{run.out.DeliveredBits, crossBits}
	run.out.Wakes = res.Wakes
	run.out.Decisions = int64(len(g.Latencies))
	run.out.Failed = g.SafeFallbacks + g.Timeouts
	if rec != nil {
		rec.closeSpans(g.Latencies)
	}
	return run
}

// matchesRunISender checks what the benchmark's driver returned for cfg
// against the repository's driver, every result field.
func matchesRunISender(cfg experiments.ISenderConfig, got experiments.ISenderResult) error {
	cfg.Workers = 1
	want := experiments.RunISender(cfg)
	if reflect.DeepEqual(want, got) {
		return nil
	}
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			return fmt.Errorf("field %s differs from experiments.RunISender", wv.Type().Field(i).Name)
		}
	}
	return fmt.Errorf("result differs from experiments.RunISender")
}

// addOutcome folds run b into the pooled outcome a.
func addOutcome(a *outcome, b outcome) {
	a.VSec += b.VSec
	a.Utility += b.Utility
	a.DeliveredBits += b.DeliveredBits
	a.LinkBits += b.LinkBits
	a.DelaySum += b.DelaySum
	a.Acks += b.Acks
	a.Drops += b.Drops
	a.Offered += b.Offered
	a.Wakes += b.Wakes
	a.Decisions += b.Decisions
	a.Failed += b.Failed
	if a.PerFlow == nil {
		a.PerFlow = make([]float64, len(b.PerFlow))
	}
	for i := range b.PerFlow {
		a.PerFlow[i] += b.PerFlow[i]
	}
}
