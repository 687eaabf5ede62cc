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
// on request, run until its link idles; a twin is forked from it with m
// more packets — one, or with flags' top bit set 2…4 as linkKbit's top
// bits say — queued behind the backlog or, on an idle link, the first
// straight into service, and a third copy advances with RunAccum under a
// watch armed m+1 levels deep with a gap log. Segment ends and shared
// sends (of a packet or two, so some outgrow a small buffer) tie with the
// baseline's next completion and tick, with u, with the instant its link
// runs dry and with that instant plus the twin's remaining extra work E —
// exactly, a nanosecond either side — so gaps end before, at and after E
// and at their own start. After every segment for which the watch has
// reported room m deep, and every arrival ending a gap fitted beside what
// the twin still queued (Lag.Holds): the log's gaps, carried through a
// Lag, give the twin's extra work to the nanosecond (what the twin has
// left to serve less what the baseline has); its deliveries are the
// baseline's with the m packets at u+ℓ … u+m·ℓ and each delivery of a busy
// stretch that stretch's E late; its drops are the baseline's; the log's
// values are the baseline's A at each gap; and the twin is EqualDynamic to
// the baseline exactly when the Lag says its lag is absorbed. At the
// horizon, or where the lag is absorbed, the Lag's gain is the simulated
// one within 1e-9 of a packet's bits.
//
// When m ≤ 3 a fourth side is forked from the twin, after as many
// segments as fillPkts's top bits say, with one more packet X: the shape
// of a burst's later decision forking a candidate behind a partly absorbed
// lag E(t'). X is dropped or admitted as Lag.Surplus (busy baseline) or
// Lag.Holds (idle) say when they say; an admitted X leaves at the
// baseline's BacklogDone(t') (t' on an idle link) + E(t') + ℓ, and the side
// carries E(t')+ℓ from there on, to the nanosecond, EqualDynamic to the
// baseline exactly when that is absorbed — as long as the watch reports
// room m+1 deep and the gap-ending arrivals fit beside its Holds.
func FuzzAbsorbedTwin(f *testing.F) {
	twinSeeds(f)
	// An idle fork whose gap a send ends while E is still owed. Found by
	// fuzzing three mutants: one each for an E that does not shrink while
	// the link idles and one that shrinks while it is busy, and one for
	// the arrival ending a gap with no room check.
	f.Add(uint8(4), uint8(15), uint8(9), uint8(6), uint8(0b0000001), []byte("\x03170"))
	f.Add(uint8(111), uint8(2), uint8(71), uint8(38), uint8(0b0101010), []byte("00"))
	f.Add(uint8(17), uint8(11), uint8(48), uint8(102), uint8(0b0101011), []byte("20"))
	// A twin two packets behind that a gap-ending 24 000-bit arrival
	// finds owing more than ℓ: the buffer holds the arrival, not the
	// arrival and what the twin still queues.
	f.Add(uint8(29), uint8(92), uint8(48), uint8(168), uint8(0b10100010), []byte("01"))
	// The second seed above, four deep (linkKbit 79 grows its baseline).
	f.Add(uint8(79), uint8(2), uint8(71), uint8(38), uint8(0b10101010), []byte("00"))
	// X forked behind a partly absorbed lag, on a busy link and delivered,
	// and on an idle one; and a gap of no length at X's u, ended by an
	// arrival X's side cannot queue (this test's first version let it by).
	f.Add(uint8(16), uint8(30), uint8(7), uint8(0), uint8(1), []byte(" 00A00"))
	f.Add(uint8(16), uint8(30), uint8(7), uint8(0), uint8(1), []byte(" 01B"))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint8(26), []byte("010A1A"))
	f.Fuzz(func(t *testing.T, linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) {
		grown, ok := twinBaseline(linkKbit, crossPct, capPkts, fillPkts, flags, sched)
		if !ok || len(sched) < 2 {
			return
		}
		base := reloaded(grown, 30+int(crossPct)%91)
		p := base.P
		x, lag := p.PktBits(), p.ServiceTime()
		m := 1
		if flags&128 != 0 {
			m = 2 + int(linkKbit>>5)%3
		}
		if sched[1]&1 != 0 {
			base.Run(base.BacklogDone(), nil, nil) // idle at the fork, unless a tick refilled it
		}
		if base.Serving && base.QueueBits+int64(m)*x > p.BufferCapBits || int64(m-1)*x > p.BufferCapBits {
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
		var extra []model.Send
		for i := 0; i < m; i++ {
			extra = append(extra, model.Send{Seq: seqX + int64(i), At: fork})
		}
		twin.Run(fork, extra, &twinEvs)
		var acc model.Accum
		var steps model.StepTable
		util.Start(&acc, fork, 0, &steps)
		var gaps []model.Gap
		if !watched.Serving {
			gaps = append(gaps, model.Gap{Dry: fork, End: units.Forever})
		}
		acc.Watch(x, lag, m+1, &gaps)

		// a is A(t), the baseline's value delivered by t.
		a := func(t time.Duration) (sum float64) {
			for _, ev := range baseEvs {
				if (ev.Kind == model.OwnDelivered || ev.Kind == model.CrossDelivered) && ev.At <= t {
					sum += value(ev)
				}
			}
			return sum
		}
		l := model.Lag{E: time.Duration(m) * lag, From: u}
		for i := 1; i <= m; i++ {
			if at := u + time.Duration(i)*lag; at <= horizon {
				l.Gain += model.PacketValue(x, at-fork, kappa)
			}
		}
		// The busy stretches the lag is carried through, each with its E.
		type stretch struct{ from, end, e time.Duration }
		stretches := []stretch{{u, units.Forever, l.E}}
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

		// The fourth side: X forked behind the twin at xAt, its lag lx.
		var xSide model.State
		var xEvs []model.Event
		var lx model.Lag
		xAt, xLive := int(fillPkts>>5), false
		var leave time.Duration

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
			if xLive {
				xSide.Run(until, sends, &xEvs)
			}
			watched.RunAccum(until, sends, &acc)
			if !watched.EqualDynamic(&base) {
				t.Fatalf("segment %d: the watched baseline left Run's", i)
			}
			level := acc.TakeWatch()
			if level < m {
				return // an arrival left the twin no room: the corollary says nothing from here on
			}
			xLive = xLive && level > m
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
				if g.Bits > p.BufferCapBits {
					t.Fatalf("segment %d: an arrival of %d bits ended a gap at %v and the watch kept level %d", i, g.Bits, g.End, level)
				}
				idle = false
				if xLive && (g.End > lx.From || g.Dry >= lx.From) && !lx.Idle(dry, g.End, 0) && g.Bits+lx.Holds(x, lag) > p.BufferCapBits {
					xLive = false // X's side could not have queued the arrival
				}
				if !absorbed {
					if absorbed = l.Idle(dry, g.End, a(dry)); !absorbed {
						if g.Bits+l.Holds(x, lag) > p.BufferCapBits {
							return // the twin could not have queued it
						}
						stretches = append(stretches, stretch{g.End, units.Forever, l.E})
					}
				}
			}
			if idle && !absorbed {
				probe := l
				absorbed = probe.Idle(dry, until, 0)
			}

			// The twin's extra work, and whether it is its baseline's.
			owed := func(l model.Lag) time.Duration {
				if idle && l.E > 0 {
					l.Idle(dry, until, 0)
				}
				return l.E
			}
			if !absorbed {
				if got, want := work(&twin)-work(&base), owed(l); got != want {
					t.Fatalf("segment %d (to %v, fork %v, u %v, lag %v): the twin has %v more work than its baseline, the Lag %v", i, until, fork, u, lag, got, want)
				}
			}
			if eq := twin.EqualDynamic(&base); eq != absorbed {
				t.Fatalf("segment %d (to %v, fork %v, u %v, lag %v, E %v): the twin equals its baseline: %v, the Lag says absorbed: %v", i, until, fork, u, lag, l.E, eq, absorbed)
			}

			// The deliveries, stretch by stretch.
			want := []model.Event{}
			for k := 1; k <= m; k++ {
				if at := u + time.Duration(k)*lag; at <= until {
					want = append(want, model.Event{Kind: model.OwnDelivered, Seq: seqX + int64(k-1), At: at, Bits: x, Delay: at - fork})
				}
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
			sameEvents(t, i, m, twinEvs, want, baseEvs)

			// X's side: forked here, or held to its lag.
			switch {
			case i == xAt && m <= 3:
				e := owed(l)
				if absorbed {
					e = 0
				}
				lx = l
				lx.E = e
				admit, known := lx.Holds(x, lag)+x <= p.BufferCapBits, true
				from := until
				if base.Serving {
					room := p.BufferCapBits - base.QueueBits - x
					lo, hi := surplus(lx, &base)
					admit, known, from = hi <= room, lo > room || hi <= room, base.BacklogDone()
				} else if !admit {
					known = false
				}
				xSide, xEvs = twin.Clone(), append([]model.Event(nil), twinEvs...)
				queued := work(&xSide)
				xSide.Run(until, []model.Send{{Seq: seqX + 8, At: until}}, &xEvs)
				admitted := work(&xSide) > queued
				if known && admitted != admit {
					t.Fatalf("segment %d (at %v, u %v, lag %v, E %v): X admitted behind the twin: %v, the bounds say %v", i, until, u, lag, e, admitted, admit)
				}
				if admitted {
					leave, lx = from+e+lag, model.Lag{E: e + lag, From: from}
					xLive = level > m
					if got := work(&xSide) - work(&base); got != e+lag {
						t.Fatalf("segment %d (at %v, u %v, lag %v, E %v): X's side has %v more work than the baseline, want E+ℓ", i, until, u, lag, e, got)
					}
				}
			case xLive:
				xOwed := owed(lx)
				if xOwed > 0 && work(&xSide)-work(&base) != xOwed {
					t.Fatalf("segment %d (to %v, lag %v): X's side has %v more work than the baseline, its Lag %v", i, until, lag, work(&xSide)-work(&base), xOwed)
				}
				if eq := xSide.EqualDynamic(&base); eq != (xOwed == 0) {
					t.Fatalf("segment %d (to %v, lag %v): X's side equals the baseline: %v, its Lag owes %v", i, until, lag, eq, xOwed)
				}
				var at time.Duration
				for _, ev := range xEvs {
					if ev.Seq == seqX+8 && ev.Kind == model.OwnDelivered {
						at = ev.At
					}
				}
				if (leave <= until) != (at != 0) || at != 0 && at != leave {
					t.Fatalf("segment %d (to %v, u %v, lag %v): X left at %v, want BacklogDone(t')+E(t')+ℓ = %v", i, until, u, lag, at, leave)
				}
			}
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
