package model_test

import (
	"math"
	"testing"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// FuzzRunStreamMatchesRun drives the streamed advance (RunAccum) beside
// the recorded one (Run, then utility.Meter.Add over its events) and
// beside the pre-rebuild event loop (RefRun), segment by segment, over
// generated states — empty to full queue, both packet sizes, pinger on
// and off, CrossRate 0 — and generated
// schedules whose untils and sends repeat and tie with each other, with
// the link's next completion and with the pinger's next tick. After
// every segment the three states agree (Key, EqualDynamic, Now), Run's
// events are the reference loop's, and the streamed segment sum equals
// Meter.Add's bit for bit, with and without a cross-latency penalty. In
// normal `go test` runs the seed corpus below is a regression test.
func FuzzRunStreamMatchesRun(f *testing.F) {
	f.Add(uint8(12), uint8(70), uint8(8), uint8(0), uint8(0b1000), []byte{4, 9, 40, 2, 13, 200, 6, 1, 80})
	f.Add(uint8(10), uint8(40), uint8(3), uint8(3), uint8(0b1011), []byte{2, 6, 10, 14, 0, 0, 5, 5, 1, 1, 255, 3, 7})
	f.Add(uint8(16), uint8(0), uint8(1), uint8(9), uint8(0b0001), []byte{6, 6, 6, 17, 2, 2, 120, 10})
	f.Add(uint8(31), uint8(55), uint8(15), uint8(16), uint8(0b1110), []byte{1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, 64, 128, 192})
	f.Add(uint8(8), uint8(99), uint8(6), uint8(6), uint8(0b0100), []byte{10, 10, 14, 14, 0, 36, 72, 2, 2, 2, 6, 250})
	f.Add(uint8(20), uint8(65), uint8(2), uint8(2), uint8(0b1101), []byte{})

	f.Fuzz(func(t *testing.T, linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) {
		p := model.Params{
			LinkRate: 8000 + 1000*units.BitRate(linkKbit%32),
			LossProb: 0.1,
		}
		if flags&1 != 0 {
			p.PktBytes = 500
		}
		if flags&2 != 0 {
			p.CrossPktBits = 3 * p.PktBits()
		}
		p.CrossRate = p.LinkRate * units.BitRate(crossPct%100) / 100
		p.BufferCapBits = int64(1+capPkts%16) * p.PktBits()
		p.InitFullBits = int64(fillPkts%17) * p.PktBits()
		start := model.Initial(p, flags&8 != 0)

		for _, util := range []utility.Config{
			{Alpha: 1, Kappa: 60 * time.Second},
			{Alpha: 2.5, Kappa: 20 * time.Second, CrossLatencyPenalty: 0.02},
		} {
			rec, str, ref := start.Clone(), start.Clone(), start.Clone()
			var meter utility.Meter
			var acc model.Accum
			var steps model.StepTable
			meter.Reset(util, 0, p.LossProb)
			util.Start(&acc, 0, p.LossProb, &steps)

			var seq int64
			var sends []model.Send
			var evs, refEvs []model.Event
			for i, b := range sched {
				// The segment's end: where the last one ended, the link's
				// next completion, the pinger's next tick, or a step on.
				until := rec.Now
				switch b & 3 {
				case 1:
					if rec.Serving {
						until = rec.ServiceDone
					}
				case 2:
					if rec.NextCross < time.Hour {
						until = rec.NextCross
					}
				case 3:
					until += time.Duration(b>>2) * 37 * time.Millisecond
				}
				// Its sends, in time order: at the start, at a completion
				// or tick on the way, at the end, twice at one instant.
				sends = sends[:0]
				for k, at := range [...]time.Duration{rec.Now, rec.ServiceDone, rec.NextCross, until, until} {
					if b>>(2+k)&1 == 1 && at >= rec.Now && at <= until && (len(sends) == 0 || at >= sends[len(sends)-1].At) {
						sends = append(sends, model.Send{Seq: seq, At: at, Bits: int64(b>>7) * 4000})
						seq++
					}
				}

				evs, refEvs = evs[:0], refEvs[:0]
				rec.Run(until, sends, &evs)
				ref.RefRun(until, sends, &refEvs)
				str.RunAccum(until, sends, &acc)

				if len(evs) != len(refEvs) {
					t.Fatalf("segment %d: Run gave %d events, the reference loop %d", i, len(evs), len(refEvs))
				}
				for j := range evs {
					if evs[j] != refEvs[j] {
						t.Fatalf("segment %d, event %d: Run gave %+v, the reference loop %+v", i, j, evs[j], refEvs[j])
					}
				}
				for name, s := range map[string]*model.State{"streamed": &str, "reference": &ref} {
					if s.Key() != rec.Key() || !s.EqualDynamic(&rec) || s.Now != rec.Now {
						t.Fatalf("segment %d: the %s state left Run's", i, name)
					}
				}
				if want, got := meter.Add(evs), acc.Take(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("segment %d (%d events): streamed sum %v, Meter.Add %v", i, len(evs), got, want)
				}
			}
		}
	})
}
