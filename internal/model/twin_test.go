package model_test

import (
	"testing"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// FuzzLaggedTwin holds the lagged-twin theorem (State.BacklogDone) to
// Run's event lists. A baseline is grown to a fork instant — prefill from
// empty to full, cross traffic chunked or not at 0.8–1.2 of the link
// rate, the gate on or off, buffers from one packet to roomy, the
// pinger's next tick optionally tied to the link's next completion or to
// u — and a twin is forked from it with one more packet X at the queue
// tail. Both then advance through generated segments whose ends and
// shared sends tie with completions, ticks, u, u+ℓ and each other, a
// third copy of the baseline advancing with RunAccum under an armed
// watch. After every segment up to which the watch has reported clean:
// the twin's deliveries are the baseline's with X at u+ℓ and every
// delivery after u exactly ℓ later (sojourns too), its drops are the
// baseline's, and it is not EqualDynamic to the baseline. Read the other
// way: at the first segment where the streams differ otherwise, the watch
// had reported. Only what arrives behind X must be no smaller than it: a
// cross chunk of a third of a packet is outside the theorem (the
// planner's gate refuses it) and ends the run at the fork, while packets
// of that size already in the system at the fork are ahead of X, are
// generated on purpose, and are held to the theorem like the rest.
func FuzzLaggedTwin(f *testing.F) {
	f.Add(uint8(4), uint8(15), uint8(9), uint8(6), uint8(0b000010), []byte{3, 7, 11, 15, 19, 23, 27, 31, 200, 100})
	f.Add(uint8(12), uint8(20), uint8(5), uint8(5), uint8(0b000011), []byte{9, 1, 5, 2, 6, 13, 17, 1, 1, 255, 3})
	f.Add(uint8(0), uint8(40), uint8(3), uint8(3), uint8(0b001010), []byte{0, 1, 1, 1, 2, 2, 2, 1, 2, 1, 2})
	f.Add(uint8(31), uint8(22), uint8(12), uint8(12), uint8(0b010011), []byte{40, 3, 3, 67, 131, 3, 195, 7, 11})
	f.Add(uint8(8), uint8(0), uint8(2), uint8(0), uint8(0b000010), []byte{120, 63, 63, 63, 63, 63, 63})
	f.Add(uint8(16), uint8(30), uint8(7), uint8(2), uint8(0b000110), []byte{33, 1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add(uint8(20), uint8(19), uint8(23), uint8(20), uint8(0b100001), []byte{5, 35, 3, 3, 3, 99, 3, 3})
	f.Add(uint8(2), uint8(21), uint8(1), uint8(1), uint8(0b000010), []byte{1, 2, 1, 2, 1, 2, 1, 2})
	// Found by fuzzing three mutants, one each: an advance that does not
	// report the link running dry; a watch that charges X alone, never the
	// packet in service; this test without its return on a cross chunk
	// smaller than X.
	f.Add(uint8(3), uint8(11), uint8(54), uint8(102), uint8(0b1001001), []byte("AA20"))
	f.Add(uint8(12), uint8(20), uint8(5), uint8(5), uint8(0b0000011), []byte("A0B2"))
	f.Add(uint8(1), uint8(0), uint8(9), uint8(6), uint8(0b1000110), []byte{3, 7, 99, 122})

	f.Fuzz(func(t *testing.T, linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) {
		p := model.Params{LinkRate: 8000 + 1000*units.BitRate(linkKbit%32)}
		if flags&32 != 0 {
			p.PktBytes = 500
		}
		x := p.PktBits()
		switch {
		case flags&1 != 0:
			p.CrossPktBits = 3 * x
		case flags&64 != 0:
			p.CrossPktBits = x / 3
		}
		p.CrossRate = p.LinkRate * units.BitRate(80+crossPct%41) / 100
		p.BufferCapBits = int64(1+capPkts%24) * x
		p.InitFullBits = int64(fillPkts%25) * x
		base := model.Initial(p, flags&2 != 0)
		lag := p.ServiceTime()
		if len(sched) == 0 {
			return
		}

		// To the fork, a few own packets on the way (a third of a packet
		// each under flag 4: smaller than X, but ahead of it, so inside
		// the theorem).
		fork := time.Duration(sched[0]) * 53 * time.Millisecond
		var grow []model.Send
		for at := fork / 4; at < fork && len(grow) < 3; at += fork/4 + 1 {
			snd := model.Send{Seq: int64(len(grow)), At: at}
			if flags&4 != 0 {
				snd.Bits = x / 3
			}
			grow = append(grow, snd)
		}
		base.Run(fork, grow, nil)
		if !base.Serving || base.QueueBits+x > p.BufferCapBits {
			return // an idle link, or X tail-dropped: no twin to speak of
		}
		u := base.BacklogDone()
		switch {
		case flags&8 != 0:
			base.NextCross = base.ServiceDone
		case flags&16 != 0:
			base.NextCross = u
		}
		if p.CrossBits() < x {
			return // arrivals smaller than X: outside the theorem
		}

		const seqX = 1 << 20
		twin, watched := base.Clone(), base.Clone()
		var twinEvs, baseEvs []model.Event
		twin.Run(fork, []model.Send{{Seq: seqX, At: fork}}, &twinEvs)
		var acc model.Accum
		var steps model.StepTable
		utility.Default().Start(&acc, fork, 0, &steps)
		acc.Watch(x, lag)

		seq := int64(10)
		for i, b := range sched[1:] {
			// The segment's end: a step on, the link's next completion, the
			// pinger's next tick, or u / u+ℓ while they are ahead.
			until := base.Now
			switch b & 3 {
			case 0:
				until += time.Duration(b>>2) * 29 * time.Millisecond
			case 1:
				until = base.ServiceDone
			case 2:
				if base.NextCross < time.Hour {
					until = base.NextCross
				}
			case 3:
				until = u
				if until <= base.Now {
					until = u + lag
				}
			}
			if until < base.Now {
				until = base.Now
			}
			// Sends both sides see, in time order: at the link's next
			// completion, at the pinger's next tick, at u, at the end.
			var sends []model.Send
			for k, at := range [...]time.Duration{base.ServiceDone, base.NextCross, u, until} {
				if b>>(2+k)&1 == 1 && at > base.Now && at <= until && (len(sends) == 0 || at >= sends[len(sends)-1].At) {
					sends = append(sends, model.Send{Seq: seq, At: at, Bits: int64(b>>7) * 2 * x})
					seq++
				}
			}
			base.Run(until, sends, &baseEvs)
			twin.Run(until, sends, &twinEvs)
			watched.RunAccum(until, sends, &acc)
			if !watched.EqualDynamic(&base) {
				t.Fatalf("segment %d: the watched baseline left Run's", i)
			}
			if !acc.TakeWatch() {
				return // premises gone: the theorem says nothing from here on
			}

			var want, wantDrops, got, gotDrops []model.Event
			for _, ev := range baseEvs {
				switch {
				case ev.Kind != model.OwnDelivered && ev.Kind != model.CrossDelivered:
					wantDrops = append(wantDrops, ev)
				case ev.At <= u:
					want = append(want, ev)
				case ev.At+lag <= until:
					ev.At, ev.Delay = ev.At+lag, ev.Delay+lag
					want = append(want, ev)
				}
			}
			for _, ev := range twinEvs {
				if ev.Kind == model.OwnDelivered || ev.Kind == model.CrossDelivered {
					got = append(got, ev)
				} else {
					gotDrops = append(gotDrops, ev)
				}
			}
			if u+lag <= until {
				// X goes in after the deliveries up to u: those after u
				// moved to u+ℓ and beyond.
				at := 0
				for at < len(want) && want[at].At <= u {
					at++
				}
				want = append(want[:at], append([]model.Event{{Kind: model.OwnDelivered, Seq: seqX, At: u + lag, Bits: x, Delay: u + lag - fork}}, want[at:]...)...)
			}
			for name, pair := range map[string][2][]model.Event{"deliveries": {got, want}, "drops": {gotDrops, wantDrops}} {
				if len(pair[0]) != len(pair[1]) {
					t.Fatalf("segment %d (to %v, u %v, lag %v): twin has %d %s, the lagged baseline %d", i, until, u, lag, len(pair[0]), name, len(pair[1]))
				}
				for j := range pair[0] {
					if pair[0][j] != pair[1][j] {
						t.Fatalf("segment %d (to %v, u %v, lag %v): twin's %s[%d] = %+v, the lagged baseline's %+v", i, until, u, lag, name, j, pair[0][j], pair[1][j])
					}
				}
			}
			if twin.EqualDynamic(&base) {
				t.Fatalf("segment %d (to %v): a clean twin equals its baseline", i, until)
			}
		}
	})
}
