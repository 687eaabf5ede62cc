// Benchmarks regenerating the paper's figures and the ablation
// experiments (README.md, "Running things"). Run them all with
//
//	go test -bench=. -benchmem
//
// Each figure bench prints the series/summary the paper reports (once,
// on the first iteration) and then times the run, so the same target
// both regenerates the result and measures its cost.
package modelcc_test

import (
	"fmt"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/experiments"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// benchDuration keeps figure benches affordable; the cmd/ tools run the
// full 300 s / 250 s versions.
const benchDuration = 120 * time.Second

// BenchmarkFig1 regenerates Figure 1: RTT during a TCP download over a
// deeply buffered LTE-like link (bufferbloat).
func BenchmarkFig1(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		cfg := experiments.Fig1Config{Duration: benchDuration, Seed: 3}
		res := experiments.RunFig1(cfg)
		if !printed {
			printed = true
			b.Logf("\n%s", res.Render())
			report, ok := experiments.Fig1Claims(res, 50*time.Millisecond)
			b.Logf("\n%s", report)
			if !ok {
				b.Error("Figure 1 claims failed")
			}
		}
	}
}

// BenchmarkSimpleConvergence regenerates the §4 simple-configuration
// result: tentative start, then sending at exactly the link speed.
func BenchmarkSimpleConvergence(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		res := experiments.RunSimple(11, benchDuration)
		if !printed {
			printed = true
			b.Logf("early=%.3f pkt/s late=%.3f pkt/s converged=%v",
				res.EarlyRate, res.LateRate, res.ConvergedToLinkSpeed)
		}
	}
}

// BenchmarkDrainFirst regenerates the §4 latency-penalty result: the
// sender drains the shared buffer before using the link.
func BenchmarkDrainFirst(b *testing.B) {
	printed := false
	for i := 0; i < b.N; i++ {
		res := experiments.RunDrain(13, 90*time.Second)
		if !printed {
			printed = true
			b.Logf("penalized first send %v vs unpenalized %v",
				res.PenalizedFirstSend, res.UnpenalizedFirstSend)
		}
	}
}

// BenchmarkBeliefScaling measures the §3.2 scalability observation
// ("maintaining more than a few million possible discrete channel
// configurations is impractical"): cost of one Bayesian update as the
// prior grows.
func BenchmarkBeliefScaling(b *testing.B) {
	for _, n := range []int{7, 13, 25, 49} {
		prior := model.Prior{
			LinkRate:      model.PriorRange{Lo: 8000, Hi: 20000, N: n},
			CrossFrac:     model.PriorRange{Lo: 0.4, Hi: 0.7, N: 4},
			LossProb:      model.PriorRange{Lo: 0, Hi: 0.2, N: 5},
			BufferCapBits: model.PriorRange{Lo: 72000, Hi: 108000, N: 4},
			FullnessSteps: 4,
			MeanSwitch:    100 * time.Second,
		}
		states, _ := prior.Enumerate()
		b.Run(fmt.Sprintf("hyps=%d", len(states)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bel := belief.NewExact(states, belief.Config{})
				bel.RecordSend(model.Send{Seq: 0, At: 0})
				b.StartTimer()
				bel.Update(time.Second, []packet.Ack{{Seq: 0, ReceivedAt: time.Second}})
			}
		})
	}
}

// BenchmarkExactUpdate times the paper's exact rejection belief over
// Figure 3's prior: five sends, each acknowledged one second later.
func BenchmarkExactUpdate(b *testing.B) {
	b.ReportAllocs()
	prior := model.Fig3Prior()
	states, _ := prior.Enumerate()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bel := belief.NewExact(states, belief.Config{})
		b.StartTimer()
		for s := int64(0); s < 5; s++ {
			at := time.Duration(s) * 2 * time.Second
			bel.RecordSend(model.Send{Seq: s, At: at})
			bel.Update(at+time.Second, []packet.Ack{{Seq: s, ReceivedAt: at + time.Second}})
		}
	}
}

// BenchmarkCoexistence runs the §3.5 extension experiments: two
// ISENDERs sharing a bottleneck, and an ISENDER against TCP Reno.
func BenchmarkCoexistence(b *testing.B) {
	b.Run("two-isenders", func(b *testing.B) {
		printed := false
		for i := 0; i < b.N; i++ {
			res := experiments.RunTwoISenders(17, benchDuration)
			if !printed {
				printed = true
				b.Logf("A=%.3f B=%.3f pkt/s Jain=%.3f drops=%d", res.ARate, res.BRate, res.JainIndex, res.Drops)
			}
		}
	})
	b.Run("isender-vs-tcp", func(b *testing.B) {
		printed := false
		for i := 0; i < b.N; i++ {
			res := experiments.RunISenderVsTCP(19, benchDuration)
			if !printed {
				printed = true
				b.Logf("isender=%.3f tcp=%.3f pkt/s drops=%d", res.ARate, res.BRate, res.Drops)
			}
		}
	})
}

// BenchmarkPlannerDecide measures one action selection, a sub-benchmark
// per path a Decide can take:
//
//   - uncached: a Fig3-sized support, the same one every iteration on the
//     same pool, so after the first iteration every hypothesis is served
//     from the rollout memo — this times keying and memo look-ups, not
//     rollouts;
//   - rolled: the same support with a pending send whose size changes every
//     iteration, so every key is new and every hypothesis is swept — on
//     links that idle (cross ≤ 0.7 c), where most lagged twins close as the
//     baseline's idle time absorbs them;
//   - saturated: a support shaped like a 256-sender fleet member's
//     (saturatedSupport) on the fleet's grid, keys new every iteration —
//     the sweep that closes most candidates as lagged twins;
//   - burst: that support decided the way a sender's wake decides, four
//     times at one instant with a packet more committed each time, a
//     nanosecond later every iteration so that no key recurs — one sweep
//     per hypothesis, for the first decision, and three vectors closed
//     from the log it leaves (the op is the four decisions);
//   - cached: the §3.3 policy cache in front (a fingerprint probe per
//     iteration after the first).
func BenchmarkPlannerDecide(b *testing.B) {
	states, _ := model.Fig3Prior().Enumerate()
	bel := belief.NewExact(states, belief.Config{})
	bel.RecordSend(model.Send{Seq: 0, At: 0})
	bel.Update(time.Second, []packet.Ack{{Seq: 0, ReceivedAt: time.Second}})
	cfg := planner.DefaultConfig()
	// novel is a committed send no earlier iteration has keyed.
	novel := func(i int, at time.Duration) []model.Send {
		return []model.Send{{Seq: 0, At: at, Bits: packet.DefaultSizeBits + int64(i)}}
	}

	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planner.Decide(bel.Support(), nil, time.Second, 1, cfg)
		}
	})
	b.Run("rolled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			planner.Decide(bel.Support(), novel(i, time.Second), time.Second, 1, cfg)
		}
	})
	b.Run("saturated", func(b *testing.B) {
		b.ReportAllocs()
		const now = 9 * time.Second
		sup := saturatedSupport(now)
		fleet := planner.Config{Util: utility.Default(), MaxDelay: 4 * time.Second, Grid: 500 * time.Millisecond, Horizon: 12 * time.Second}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			planner.Decide(sup, novel(i, now), now, 1, fleet)
		}
	})
	b.Run("burst", func(b *testing.B) {
		b.ReportAllocs()
		const now = 9 * time.Second
		sup := saturatedSupport(now)
		fleet := planner.Config{Util: utility.Default(), MaxDelay: 4 * time.Second, Grid: 500 * time.Millisecond, Horizon: 12 * time.Second}
		var sends [3]model.Send
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := now + time.Duration(i)
			for depth := 0; depth <= len(sends); depth++ {
				if depth > 0 {
					sends[depth-1] = model.Send{Seq: int64(depth), At: at}
				}
				planner.Decide(sup, sends[:depth], at, 1, fleet)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		pc := planner.NewPolicyCache()
		for i := 0; i < b.N; i++ {
			pc.Decide(planner.NewWake(bel.Support(), time.Second), nil, 1, cfg)
		}
	})
}

// saturatedSupport is a belief the way a member of a 256-sender fleet
// holds it at now (fleet.Prior at N = 256): the other senders a pinger of
// 64-packet chunks at 0.994–0.998 of the link rate, ten to fifteen chunks
// queued behind one partly served, the gate on. Such a link does not idle
// within the fleet's 16 s rollouts.
func saturatedSupport(now time.Duration) []belief.Hypothesis {
	const n = 256
	var sup []belief.Hypothesis
	for i := 0; i < 24; i++ {
		p := model.Params{
			LinkRate:      6000 * n,
			MeanSwitch:    30 * time.Second,
			BufferCapBits: 4 * packet.DefaultSizeBits * n,
			CrossPktBits:  packet.DefaultSizeBits * n / 4,
		}
		p.CrossRate = p.LinkRate * units.BitRate(1-(0.4+0.4*float64(i%4))/n)
		s := model.Initial(p, true)
		chunk := model.QPkt{Seq: -1, Bits: p.CrossBits(), EnqueuedAt: now}
		s.Now, s.Serving, s.InService = now, true, chunk
		s.ServiceDone = now + time.Duration(1+i)*20*time.Millisecond
		for c := 0; c < 10+i%6; c++ {
			s.Queue = append(s.Queue, chunk)
			s.QueueBits += chunk.Bits
		}
		s.NextCross = now + time.Duration(1+i)*17*time.Millisecond
		sup = append(sup, belief.Hypothesis{S: s, W: 1 / 24.0})
	}
	return sup
}

// BenchmarkParallelWorkers measures the rollout engine's scaling: one
// Bayesian update and one action selection over the Fig3 prior at
// increasing worker counts. Results are bit-identical across the row
// (asserted by the serial/parallel equivalence tests); on a single-core
// host the row only shows the pool's overhead.
func BenchmarkParallelWorkers(b *testing.B) {
	states, _ := model.Fig3Prior().Enumerate()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("belief-update/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				bel := belief.NewExact(states, belief.Config{Workers: w})
				bel.RecordSend(model.Send{Seq: 0, At: 0})
				b.StartTimer()
				bel.Update(time.Second, []packet.Ack{{Seq: 0, ReceivedAt: time.Second}})
			}
		})
		b.Run(fmt.Sprintf("planner-decide/workers=%d", w), func(b *testing.B) {
			bel := belief.NewExact(states, belief.Config{Workers: w})
			bel.RecordSend(model.Send{Seq: 0, At: 0})
			bel.Update(time.Second, []packet.Ack{{Seq: 0, ReceivedAt: time.Second}})
			cfg := planner.DefaultConfig()
			cfg.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				planner.Decide(bel.Support(), nil, time.Second, 1, cfg)
			}
		})
	}
}

// BenchmarkPlannerHypotheses measures how planning cost scales with the
// support truncation MaxHyps, the planner's main approximation
// (planner.Config.MaxHyps).
func BenchmarkPlannerHypotheses(b *testing.B) {
	states, _ := model.Fig3Prior().Enumerate()
	bel := belief.NewExact(states, belief.Config{})
	for _, k := range []int{16, 64, 256, 1024} {
		cfg := planner.DefaultConfig()
		cfg.MaxHyps = k
		b.Run(fmt.Sprintf("maxhyps=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				planner.Decide(bel.Support(), nil, 0, 0, cfg)
			}
		})
	}
}

// BenchmarkUtilityKappa is the ablation for the discount-timescale
// substitution the utility package comment records: Figure 3's α=1 run under
// different κ, reporting drops caused (the paper's no-overflow claim
// needs a near-linear utility).
func BenchmarkUtilityKappa(b *testing.B) {
	for _, kappa := range []time.Duration{time.Second, 10 * time.Second, 60 * time.Second} {
		b.Run(fmt.Sprintf("kappa=%s", kappa), func(b *testing.B) {
			printed := false
			for i := 0; i < b.N; i++ {
				cfg := experiments.Fig3Config(1.0, 42, benchDuration)
				cfg.Utility = utility.Config{Alpha: 1, Kappa: kappa}
				res := experiments.RunISender(cfg)
				if !printed {
					printed = true
					b.Logf("kappa=%v: drops=%d sent=%d acked=%d",
						kappa, res.OwnBufferDrops+res.CrossBufferDrops, res.Sent, res.Acked)
				}
			}
		})
	}
}
