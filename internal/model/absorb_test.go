package model_test

import (
	"math"
	"sort"
	"testing"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// FuzzAbsorbedTwin holds the corollary at State.BacklogDone — a lagged
// twin's extra work absorbed by its baseline's idle time — and the closed
// form model.Lag keeps for it to Run's event lists. A baseline grown by
// twinBaseline is put under cross traffic of 0.3–1.2 of the link rate and,
// on request, run until its link idles; a twin is forked from it with one
// more packet X, queued behind the backlog or, on an idle link, straight
// into service, and a third copy advances with RunAccum under a watch
// armed one level deep with a gap log. Segment ends and shared sends (of a
// packet or two, so some outgrow a one-packet buffer) tie with the
// baseline's next completion and tick, with u, with the instant its link
// runs dry and with that instant plus the twin's remaining extra work E —
// exactly, a nanosecond either side — so gaps end before, at and after E
// and at their own start. After every segment for which the watch has
// reported room: the log's gaps, carried through a Lag, give the twin's
// extra work to the nanosecond (what the twin has left to serve less what
// the baseline has); its deliveries are the baseline's with X at u+ℓ and
// each delivery of a busy stretch that stretch's E late; its drops are the
// baseline's; the log's values are the baseline's A at each gap; and the
// twin is EqualDynamic to the baseline exactly when the Lag says its lag
// is absorbed. At the horizon, or where the lag is absorbed, the Lag's
// gain is the simulated one within 1e-9 of a packet's bits.
func FuzzAbsorbedTwin(f *testing.F) {
	twinSeeds(f)
	// An idle fork whose gap a send ends while E is still owed. Found by
	// fuzzing three mutants: one each for an E that does not shrink while
	// the link idles and one that shrinks while it is busy, and one for
	// the arrival ending a gap with no room check.
	f.Add(uint8(4), uint8(15), uint8(9), uint8(6), uint8(0b0000001), []byte("\x03170"))
	f.Add(uint8(111), uint8(2), uint8(71), uint8(38), uint8(0b0101010), []byte("00"))
	f.Add(uint8(17), uint8(11), uint8(48), uint8(102), uint8(0b0101011), []byte("20"))
	f.Fuzz(func(t *testing.T, linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) {
		grown, ok := twinBaseline(linkKbit, crossPct, capPkts, fillPkts, flags, sched)
		if !ok || len(sched) < 2 {
			return
		}
		base := reloaded(grown, 30+int(crossPct)%91)
		p := base.P
		x, lag := p.PktBits(), p.ServiceTime()
		if sched[1]&1 != 0 {
			base.Run(base.BacklogDone(), nil, nil) // idle at the fork, unless a tick refilled it
		}
		if base.Serving && base.QueueBits+x > p.BufferCapBits {
			return
		}
		fork, u := base.Now, base.Now
		if base.Serving {
			u = base.BacklogDone()
		}
		horizon := u + lag + time.Duration(sched[1]>>1)*83*time.Millisecond
		util := utility.Config{Alpha: 1.5, Kappa: time.Second}
		kappa := float64(util.Kappa)
		value := func(ev model.Event) float64 {
			v := float64(ev.Bits) * math.Exp(-float64(ev.At-fork)/kappa)
			if ev.Kind == model.CrossDelivered {
				v *= util.Alpha
			}
			return v
		}

		const seqX = 1 << 20
		twin, watched := base.Clone(), base.Clone()
		var twinEvs, baseEvs []model.Event
		twin.Run(fork, []model.Send{{Seq: seqX, At: fork}}, &twinEvs)
		var acc model.Accum
		var steps model.StepTable
		util.Start(&acc, fork, 0, &steps)
		var gaps []model.Gap
		if !watched.Serving {
			gaps = append(gaps, model.Gap{Dry: fork, End: units.Forever})
		}
		acc.Watch(x, lag, 1, &gaps)

		// a is A(t), the baseline's value delivered by t.
		a := func(t time.Duration) (sum float64) {
			for _, ev := range baseEvs {
				if (ev.Kind == model.OwnDelivered || ev.Kind == model.CrossDelivered) && ev.At <= t {
					sum += value(ev)
				}
			}
			return sum
		}
		l := model.Lag{E: lag, From: u, Gain: model.PacketValue(x, 1, u+lag-fork, kappa)}
		// The busy stretches the lag is carried through, each with its E.
		type stretch struct{ from, end, e time.Duration }
		stretches := []stretch{{u, units.Forever, lag}}
		if !watched.Serving {
			stretches[0].end = u // an idle fork's lag starts in a gap
		}
		book := func(end time.Duration) {
			aCut := a(l.Cut(end, horizon))
			if l.Cut(end, horizon) == l.From {
				aCut = l.A
			}
			l.Stretch(aCut, a(end), l.Slip(kappa))
		}
		work := func(s *model.State) time.Duration {
			if !s.Serving {
				return 0
			}
			return s.BacklogDone() - s.Now
		}
		idle, absorbed, seen, taken := !watched.Serving, false, 0, 0.0
		dry := fork

		seq := int64(10)
		for i := 0; !absorbed && base.Now < horizon; i++ {
			var end, snd byte
			if 2*i+3 < len(sched) {
				end, snd = sched[2*i+2], sched[2*i+3]
			} else {
				end = 0xf8 // the rest of the way, nothing sent
			}
			dryAt, e := base.Now+work(&base), work(&twin)-work(&base)
			until := base.Now
			switch end & 7 {
			case 0:
				until += time.Duration(end>>3) * 29 * time.Millisecond
				if 2*i+3 >= len(sched) {
					until = horizon
				}
			case 1:
				until = base.ServiceDone
			case 2:
				until = base.NextCross
			case 3:
				for until = u; until <= base.Now; until += lag {
				}
			case 4:
				until = dryAt
			case 5:
				until = dryAt + e
			case 6:
				until = dryAt + e - 1
			case 7:
				until = dryAt + e + 1
			}
			until = min(max(until, base.Now), horizon)
			var sends []model.Send
			for k, at := range [...]time.Duration{dryAt, dryAt + e, dryAt + e - 1, dryAt + e + 1, base.NextCross, until} {
				if snd>>k&1 == 1 && at > base.Now && at <= until && (len(sends) == 0 || at >= sends[len(sends)-1].At) {
					sends = append(sends, model.Send{Seq: seq, At: at, Bits: int64(snd>>6&1) * 2 * x})
					seq++
				}
			}
			base.Run(until, sends, &baseEvs)
			twin.Run(until, sends, &twinEvs)
			watched.RunAccum(until, sends, &acc)
			if !watched.EqualDynamic(&base) {
				t.Fatalf("segment %d: the watched baseline left Run's", i)
			}
			if acc.TakeWatch() == 0 {
				return // an arrival left the twin no room: the corollary says nothing from here on
			}
			before := taken
			taken += acc.Take()
			if l.From == u {
				l.A = a(u)
			}

			for ; seen < len(gaps); seen++ {
				g := gaps[seen]
				if !idle {
					if want := a(g.Dry); math.Abs(before+g.Value-want) > 1e-9*float64(x) {
						t.Fatalf("segment %d: the log has A %v where the link ran dry at %v, the events %v", i, before+g.Value, g.Dry, want)
					}
					idle, dry = true, g.Dry
					if !absorbed {
						book(g.Dry)
						stretches[len(stretches)-1].end = g.Dry
					}
				}
				if g.End == units.Forever {
					break
				}
				idle = false
				if !absorbed {
					if absorbed = l.Idle(dry, g.End, a(dry)); !absorbed {
						stretches = append(stretches, stretch{g.End, units.Forever, l.E})
					}
				}
			}
			if idle && !absorbed {
				probe := l
				absorbed = probe.Idle(dry, until, 0)
			}

			// The twin's extra work, and whether it is its baseline's.
			if !absorbed {
				want := l.E
				if idle {
					want -= until - max(dry, l.From)
				}
				if got := work(&twin) - work(&base); got != want {
					t.Fatalf("segment %d (to %v, fork %v, u %v, lag %v): the twin has %v more work than its baseline, the Lag %v", i, until, fork, u, lag, got, want)
				}
			}
			if eq := twin.EqualDynamic(&base); eq != absorbed {
				t.Fatalf("segment %d (to %v, fork %v, u %v, lag %v, E %v): the twin equals its baseline: %v, the Lag says absorbed: %v", i, until, fork, u, lag, l.E, eq, absorbed)
			}

			// The deliveries, stretch by stretch.
			want := []model.Event{}
			if at := u + lag; at <= until {
				want = append(want, model.Event{Kind: model.OwnDelivered, Seq: seqX, At: at, Bits: x, Delay: at - fork})
			}
			for _, ev := range baseEvs {
				if ev.Kind != model.OwnDelivered && ev.Kind != model.CrossDelivered {
					continue
				}
				for _, s := range stretches {
					if ev.At > s.from && ev.At <= s.end {
						ev.At, ev.Delay = ev.At+s.e, ev.Delay+s.e
						break
					}
				}
				if ev.At <= until {
					want = append(want, ev)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
			sameEvents(t, i, 1, twinEvs, want, baseEvs)
		}

		// The closed gain against the simulated one.
		if !absorbed && !idle {
			book(horizon)
		}
		var sim float64
		for _, evs := range [2][]model.Event{twinEvs, baseEvs} {
			for _, ev := range evs {
				if (ev.Kind == model.OwnDelivered || ev.Kind == model.CrossDelivered) && ev.At <= horizon {
					sim += value(ev)
				}
			}
			sim = -sim
		}
		if d := l.Gain - sim; math.Abs(d) > 1e-9*float64(x) {
			t.Fatalf("fork %v, u %v, lag %v, horizon %v: closed gain %v, simulated %v", fork, u, lag, horizon, l.Gain, sim)
		}
	})
}

// reloaded returns s with its pinger at pct % of the link rate and its
// next tick where it was.
func reloaded(s model.State, pct int) model.State {
	p := s.P.Params
	p.CrossRate, p.InitFullBits = p.LinkRate*units.BitRate(pct)/100, 0
	r := model.Initial(p, s.PingerOn)
	r.Now, r.NextCross, r.NextToggle = s.Now, s.NextCross, s.NextToggle
	r.Serving, r.InService, r.ServiceDone = s.Serving, s.InService, s.ServiceDone
	r.Queue, r.QueueBits = append([]model.QPkt(nil), s.Queued()...), s.QueueBits
	return r
}
