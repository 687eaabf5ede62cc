package model_test

import (
	"math"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/planner"
	"modelcc/internal/rollout"
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
	twinSeeds(f)

	f.Fuzz(func(t *testing.T, linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) {
		base, ok := twinBaseline(linkKbit, crossPct, capPkts, fillPkts, flags, sched)
		if !ok {
			return
		}
		p, fork := base.P, base.Now
		x, lag, u := p.PktBits(), p.ServiceTime(), base.BacklogDone()

		const seqX = 1 << 20
		twin, watched := base.Clone(), base.Clone()
		var twinEvs, baseEvs []model.Event
		twin.Run(fork, []model.Send{{Seq: seqX, At: fork}}, &twinEvs)
		var acc model.Accum
		var steps model.StepTable
		utility.Default().Start(&acc, fork, 0, &steps)
		var gaps []model.Gap
		acc.Watch(x, lag, 1, &gaps)

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
			if acc.TakeWatch() == 0 || len(gaps) > 0 {
				return // premises gone: the theorem says nothing from here on
			}

			sameEvents(t, i, 1, twinEvs, lagged(baseEvs, []cut{{after: u, sentAt: fork, seq: seqX, n: 1}}, until, lag, x), baseEvs)
			if twin.EqualDynamic(&base) {
				t.Fatalf("segment %d (to %v): a clean twin equals its baseline", i, until)
			}
		}
	})
}

// FuzzTwinStack holds the theorem's deeper half to Run's event lists: the
// same baseline as FuzzLaggedTwin, with three twins forked from it at t —
// one, two and three packets behind — and, some segments later at t', a
// fourth side forked from the twin m behind (m from the schedule) with one
// more packet X: the shape of a burst's later decisions, which plan
// against the first one's baseline m service times late. Segment ends tie
// with completions, ticks, u, u+k·ℓ, a service start plus m·ℓ and each
// other — so X forks before u, inside [u, u+m·ℓ) and after, and exactly
// m·ℓ into a service — and the sends every side sees are packets of x or
// 2x bits, so several services begin inside one window. A copy of the
// baseline advances with RunAccum under a watch armed four levels deep.
// After every segment, for every twin j no deeper than the watch has
// reported clean throughout: its BacklogDone is the baseline's plus j·ℓ,
// its deliveries are the baseline's with the j packets at u+ℓ … u+j·ℓ
// and everything after u exactly j·ℓ later, its drops are the baseline's,
// and its queue holds more than the baseline's by an amount inside
// TwinSurplus's bounds. At t', with the watch clean at level m so far, X
// is dropped on arrival when the lower bound leaves it no room and
// admitted when the upper bound does; from there on, with the watch
// clean at level m+1 throughout, an admitted X leaves at the baseline's
// BacklogDone(t') + (m+1)·ℓ and what the baseline delivers after that
// instant leaves (m+1)·ℓ late, and a dropped X leaves the fourth side
// delivering what its twin does. And at every segment end the watch's
// running sum of queued service times (Accum.TakeQueued) has carried
// BacklogDone forward to the nanosecond for as long as the link has not
// idled.
func FuzzTwinStack(f *testing.F) {
	twinSeeds(f)
	f.Add(uint8(4), uint8(15), uint8(19), uint8(9), uint8(0b000011), []byte{3, 9, 1, 0, 1, 0, 9, 3, 1, 0, 4, 0, 1, 0, 5, 0, 1, 0})
	f.Add(uint8(4), uint8(35), uint8(23), uint8(20), uint8(0b000010), []byte{40, 6, 3, 255, 5, 15, 5, 0, 4, 0, 0, 255, 1, 0, 1, 0})
	f.Add(uint8(12), uint8(40), uint8(12), uint8(10), uint8(0b000011), []byte{9, 2, 4, 3, 4, 3, 1, 3, 2, 0, 1, 0, 1, 0, 1, 0, 2, 0})
	// Found by fuzzing mutants, one each: a level rule without the packet
	// in service; one that forgets it a service time early; a surplus of
	// m·x still charged at u itself.
	f.Add(uint8(75), uint8(15), uint8(105), uint8(19), uint8(0b11101001), []byte("00080\x9b0101"))
	f.Add(uint8(31), uint8(22), uint8(8), uint8(12), uint8(0b0010011), []byte("702C112800"))
	f.Add(uint8(4), uint8(15), uint8(47), uint8(1), uint8(0b0010110), []byte("0021"))

	f.Fuzz(func(t *testing.T, linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) {
		base, ok := twinBaseline(linkKbit, crossPct, capPkts, fillPkts, flags, sched)
		if !ok || len(sched) < 2 {
			return
		}
		p, fork := base.P, base.Now
		x, lag, u0 := p.PktBits(), p.ServiceTime(), base.BacklogDone()

		// The twins, j packets behind; as deep as the buffer admits at t.
		const levels, seqX = 4, 1 << 20
		depth := int(min(3, (p.BufferCapBits-base.QueueBits)/x))
		m := min(1+int(sched[1])%3, depth)
		forkAfter := int(sched[1]) >> 2 % 8 // X forks after this many segments
		var twins [4]model.State
		var twinEvs [4][]model.Event
		stack := []cut{{after: u0, sentAt: fork, seq: seqX + 1}}
		for j := 1; j <= depth; j++ {
			twins[j] = base.Clone()
			var sends []model.Send
			for i := 0; i < j; i++ {
				sends = append(sends, model.Send{Seq: seqX + 1 + int64(i), At: fork})
			}
			twins[j].Run(fork, sends, &twinEvs[j])
		}
		watched := base.Clone()
		var baseEvs []model.Event
		var acc model.Accum
		var steps model.StepTable
		utility.Default().Start(&acc, fork, 0, &steps)
		var gaps []model.Gap
		acc.Watch(x, lag, levels, &gaps)
		level, carried := levels, u0

		// The fourth side, once forked.
		var xSide model.State
		var xEvs []model.Event
		xForked, xAdmitted, xKnown := false, false, false
		var xCut cut

		seq := int64(10)
		for i := 0; 2*i+3 < len(sched); i++ {
			end, snd := sched[2*i+2], sched[2*i+3]
			start := base.ServiceDone - units.TransmitTime(base.InService.Bits, p.LinkRate)
			until := base.Now
			switch end & 7 {
			case 0:
				until += time.Duration(end>>3) * 29 * time.Millisecond
			case 1:
				until = base.ServiceDone
			case 2:
				if base.NextCross < time.Hour {
					until = base.NextCross
				}
			case 3:
				// u, then u+ℓ, u+2ℓ, … whichever is next.
				for until = u0; until <= base.Now; until += lag {
				}
			case 4:
				until = start + time.Duration(m)*lag
			case 5:
				until = base.ServiceDone + time.Duration(m)*lag
			case 6:
				until += time.Duration(end>>3) * time.Millisecond
			case 7:
				until = u0 + time.Duration(m)*lag
			}
			if until < base.Now {
				until = base.Now
			}
			var sends []model.Send
			for k, at := range [...]time.Duration{base.ServiceDone, base.NextCross, u0, until} {
				if snd>>k&1 == 1 && at > base.Now && at <= until && (len(sends) == 0 || at >= sends[len(sends)-1].At) {
					sends = append(sends, model.Send{Seq: seq, At: at, Bits: int64(snd>>(4+k)&1) * 2 * x})
					seq++
				}
			}
			base.Run(until, sends, &baseEvs)
			for j := 1; j <= depth; j++ {
				twins[j].Run(until, sends, &twinEvs[j])
			}
			if xForked {
				xSide.Run(until, sends, &xEvs)
			}
			watched.RunAccum(until, sends, &acc)
			if !watched.EqualDynamic(&base) {
				t.Fatalf("segment %d: the watched baseline left Run's", i)
			}
			if level = min(level, acc.TakeWatch()); level == 0 || len(gaps) > 0 {
				return // premises gone: the theorem says nothing from here on
			}
			if carried += acc.TakeQueued(); carried != base.BacklogDone() {
				t.Fatalf("segment %d (to %v): BacklogDone carried forward to %v, summed %v", i, until, carried, base.BacklogDone())
			}

			for j := 1; j <= min(depth, level); j++ {
				stack[0].n = j
				sameEvents(t, i, j, twinEvs[j], lagged(baseEvs, stack, until, lag, x), baseEvs)
				if got, want := twins[j].BacklogDone(), base.BacklogDone()+time.Duration(j)*lag; got != want {
					t.Fatalf("segment %d (to %v): twin %d's BacklogDone %v, the baseline's plus %d lags %v", i, until, j, got, j, want)
				}
				lo, hi := base.TwinSurplus(j, x, lag, u0)
				if d := twins[j].QueueBits - base.QueueBits; d < lo || d > hi {
					t.Fatalf("segment %d (to %v, u %v, lag %v): twin %d's queue holds %d bits more than the baseline's, TwinSurplus says %d to %d", i, until, u0, lag, j, d, lo, hi)
				}
			}
			if level < m {
				continue
			}
			stack[0].n = m
			switch {
			case !xForked && i >= forkAfter:
				// X: dropped or admitted as the baseline's queue and the
				// twin's surplus over it say, when they say.
				room := p.BufferCapBits - base.QueueBits - x
				lo, hi := base.TwinSurplus(m, x, lag, u0)
				xSide, xEvs, xForked = twins[m].Clone(), append([]model.Event(nil), twinEvs[m]...), true
				before := xSide.QueueBits
				xSide.Run(until, []model.Send{{Seq: seqX, At: until}}, &xEvs)
				xAdmitted, xKnown = xSide.QueueBits > before, lo > room || hi <= room
				if xKnown && xAdmitted != (hi <= room) {
					t.Fatalf("segment %d (at %v, u %v, lag %v): X admitted behind twin %d: %v; the baseline has room for %d bits more and the twin's surplus is %d to %d", i, until, u0, lag, m, xAdmitted, room, lo, hi)
				}
				xCut = cut{after: base.BacklogDone(), sentAt: until, seq: seqX, n: 1}
			case xForked && !xAdmitted:
				// Its drops are the baseline's and X, in time order.
				var drops []model.Event
				for k, ev := range baseEvs {
					if ev.At > xCut.sentAt {
						drops = append(drops, model.Event{Kind: model.OwnBufferDrop, Seq: seqX, At: xCut.sentAt, Bits: x})
						drops = append(drops, baseEvs[k:]...)
						break
					}
					drops = append(drops, ev)
				}
				if len(drops) == len(baseEvs) {
					drops = append(drops, model.Event{Kind: model.OwnBufferDrop, Seq: seqX, At: xCut.sentAt, Bits: x})
				}
				sameEvents(t, i, -1, xEvs, lagged(baseEvs, stack, until, lag, x), drops)
			case xForked && level > m:
				sameEvents(t, i, -1, xEvs, lagged(baseEvs, []cut{stack[0], xCut}, until, lag, x), baseEvs)
				if got, want := xSide.BacklogDone(), base.BacklogDone()+time.Duration(m+1)*lag; got != want {
					t.Fatalf("segment %d (to %v): X's side's BacklogDone %v, the baseline's plus %d lags %v", i, until, got, m+1, want)
				}
			}
		}
	})
}

// FuzzDrained holds the planner's closure of a quiet hypothesis — one that
// nothing arrives at to the horizon, where every lane closes at its fork
// with its packet's value (the corollary at State.BacklogDone with nothing
// to stretch) — to Run's event lists. A baseline grown the way the
// lagged-twin fuzzers grow theirs — own packets and cross chunks of a
// packet, three or a third of one mixed in its queue, the buffer full or
// roomy, the link busy or idle — is made quiet: its gate turned off, or
// its next tick put past the horizon. Candidate instants start at the
// baseline's instant and step on, tie with the link's next completion or
// with the instant its backlog clears, or repeat the one before; the
// horizon lies past them or on a candidate's own delivery, exactly or a
// nanosecond short; the loss probability is 0 to 0.7 and κ 1 s or 60 s.
// Each candidate is planned by planner.Decide on the baseline advanced to
// its instant, one candidate per call and the horizon where it lies, and
// simulated — the baseline and a copy sent one more packet at the
// candidate's instant, both run to the horizon, their deliveries valued
// afresh; the planned gain must be the difference within 1e-9 of a
// packet's bits, and every lane must have been closed, none simulated. It
// lives here, not in the planner, because it grows its baselines with
// twinBaseline and shares the lagged-twin fuzzers' corpus, and so that
// `go test -run 'FuzzDrained|FuzzAbsorbedTwin' ./internal/model/` runs
// every closed form against simulation.
func FuzzDrained(f *testing.F) {
	twinSeeds(f)
	// A busy link with a queue behind it and room to spare; a full buffer;
	// a horizon on a candidate's delivery, behind the backlog and into an
	// idle link.
	f.Add(uint8(4), uint8(15), uint8(20), uint8(8), uint8(0b10000010), []byte{2, 0, 0, 5, 9})
	f.Add(uint8(12), uint8(20), uint8(6), uint8(20), uint8(0b00000011), []byte{1, 7, 0, 1, 4, 4})
	f.Add(uint8(8), uint8(30), uint8(18), uint8(5), uint8(0b00000010), []byte{3, 0b0101, 4, 2, 8})
	f.Add(uint8(8), uint8(30), uint8(18), uint8(3), uint8(0b10000000), []byte{3, 0b00101, 2, 4, 1})
	// Found by fuzzing the mutant that admits a packet the buffer has no
	// room for.
	f.Add(uint8(119), uint8(22), uint8(74), uint8(38), uint8(0b1100110), []byte("0A1"))

	f.Fuzz(func(t *testing.T, linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) {
		base, _ := twinBaseline(linkKbit, crossPct, capPkts, fillPkts, flags, sched)
		if len(sched) < 3 {
			return
		}
		const far = time.Hour
		fork, farTick := base.Now, flags&2 != 0
		base.PingerOn = farTick
		base.NextCross = fork + far
		base.P.LossProb = float64(sched[1]&7) / 10
		survive, kappa := 1-base.P.LossProb, float64(time.Second)
		if flags&128 != 0 {
			kappa *= 60
		}
		x := base.P.PktBits()

		// The candidate instants, read off a copy that drains as they pass.
		probe := base.Clone()
		var at []time.Duration
		for _, b := range sched[2:min(len(sched), 14)] {
			next := probe.Now
			switch b & 3 {
			case 0:
				next += time.Duration(b>>2) * 37 * time.Millisecond
			case 1:
				if probe.Serving {
					next = probe.ServiceDone
				}
			case 2:
				if probe.Serving {
					next = probe.BacklogDone()
				}
			}
			probe.Run(next, nil, nil)
			at = append(at, next)
		}

		// run sends one packet at each instant listed (none for the
		// baseline) and returns what the run delivers by until, valued
		// from the fork.
		run := func(until time.Duration, sends ...time.Duration) (value float64, evs []model.Event) {
			s := base.Clone()
			var snd []model.Send
			for _, a := range sends {
				snd = append(snd, model.Send{Seq: 1 << 20, At: a})
			}
			s.Run(until, snd, &evs)
			for _, ev := range evs {
				v := float64(ev.Bits) * survive * math.Exp(-float64(ev.At-fork)/kappa)
				switch ev.Kind {
				case model.OwnDelivered:
					value += v
				case model.CrossDelivered:
					value += 1.5 * v
				}
			}
			return value, evs
		}

		horizon := at[len(at)-1] + time.Duration(sched[1]>>5)*400*time.Millisecond
		if mode := sched[1] >> 3 & 3; mode > 0 {
			// On the delivery of candidate j's packet, if it has one.
			j := int(sched[1]>>5) % len(at)
			_, evs := run(fork+far, at[j])
			for _, ev := range evs {
				if ev.Kind == model.OwnDelivered && ev.Seq == 1<<20 {
					horizon = ev.At
					if mode == 2 {
						horizon--
					}
				}
			}
		}
		if farTick {
			base.NextCross = horizon + 1
		}
		for len(at) > 0 && at[len(at)-1] > horizon {
			at = at[:len(at)-1] // the closed form speaks of sends by the horizon
		}

		// One candidate per call (MaxDelay under Grid), at a, with the
		// horizon a+MaxDelay+Horizon where it lies: a candidate within 2 ns
		// of it leaves no room for a positive Horizon, and its packet is not
		// through by then anyway.
		pool := rollout.New(1)
		cfg := planner.Config{Util: utility.Config{Alpha: 1.5, Kappa: time.Duration(kappa)}, MaxDelay: 1, Grid: 2, Workers: 1, Pool: pool}
		without, _ := run(horizon)
		probe = base.Clone()
		for k, a := range at {
			if cfg.Horizon = horizon - a - cfg.MaxDelay; cfg.Horizon <= 0 {
				break
			}
			probe.Run(a, nil, nil)
			d := planner.Decide([]belief.Hypothesis{{S: probe.Clone(), W: 1}}, nil, a, 1<<20, cfg)
			gain := d.Gain * math.Exp(-float64(a-fork)/kappa)
			if with, _ := run(horizon, a); math.Abs(gain-(with-without)) > 1e-9*float64(x) {
				t.Fatalf("candidate %d at %v (fork %v, horizon %v): planned gain %v, simulated %v", k, a, fork, horizon, gain, with-without)
			}
		}
		if st := planner.PoolMemoStats(pool); st.Closed != st.Lanes {
			t.Fatalf("%d of %d lanes closed, want all", st.Closed, st.Lanes)
		}
	})
}

// cut is n own packets a twin took at sentAt, when its baseline's
// BacklogDone was after: they leave one lag apart from after on, numbered
// from seq, and everything the baseline delivers later than after leaves
// n lags later.
type cut struct {
	after, sentAt time.Duration
	seq           int64
	n             int
}

// lagged returns what the theorem says a twin that took cuts (in order of
// their after) has delivered by until, given what its baseline delivered.
func lagged(base []model.Event, cuts []cut, until, lag time.Duration, x int64) []model.Event {
	var out []model.Event
	var shift time.Duration
	take := func(c cut) {
		for i := 1; i <= c.n; i++ {
			if at := c.after + shift + time.Duration(i)*lag; at <= until {
				out = append(out, model.Event{Kind: model.OwnDelivered, Seq: c.seq + int64(i-1), At: at, Bits: x, Delay: at - c.sentAt})
			}
		}
		shift += time.Duration(c.n) * lag
	}
	for _, ev := range base {
		if ev.Kind != model.OwnDelivered && ev.Kind != model.CrossDelivered {
			continue
		}
		for len(cuts) > 0 && ev.At > cuts[0].after {
			take(cuts[0])
			cuts = cuts[1:]
		}
		if ev.At+shift <= until {
			ev.At, ev.Delay = ev.At+shift, ev.Delay+shift
			out = append(out, ev)
		}
	}
	for _, c := range cuts {
		take(c)
	}
	return out
}

// sameEvents requires a side's deliveries to be want and its drops to be
// those among drops, in order.
func sameEvents(t *testing.T, seg, twin int, got, want, drops []model.Event) {
	t.Helper()
	var gotDel, gotDrops, wantDrops []model.Event
	for _, ev := range got {
		if ev.Kind == model.OwnDelivered || ev.Kind == model.CrossDelivered {
			gotDel = append(gotDel, ev)
		} else {
			gotDrops = append(gotDrops, ev)
		}
	}
	for _, ev := range drops {
		if ev.Kind != model.OwnDelivered && ev.Kind != model.CrossDelivered {
			wantDrops = append(wantDrops, ev)
		}
	}
	for name, pair := range map[string][2][]model.Event{"deliveries": {gotDel, want}, "drops": {gotDrops, wantDrops}} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("segment %d, twin %d: %d %s, the lagged baseline %d", seg, twin, len(pair[0]), name, len(pair[1]))
		}
		for j := range pair[0] {
			if pair[0][j] != pair[1][j] {
				t.Fatalf("segment %d, twin %d: %s[%d] = %+v, the lagged baseline's %+v", seg, twin, name, j, pair[0][j], pair[1][j])
			}
		}
	}
}

// twinSeeds is the corpus the two lagged-twin fuzzers share.
func twinSeeds(f *testing.F) {
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
}

// twinBaseline grows the baseline both lagged-twin fuzzers fork their
// twins from, standing at the fork instant sched[0] picks: prefill from
// empty to full, cross traffic chunked or not at 0.8–1.2 of the link
// rate, the gate on or off, buffers from one packet to roomy, a few own
// packets sent on the way (a third of a packet each under flag 4: smaller
// than X, but ahead of it, so inside the theorem), the pinger's next tick
// optionally tied to the link's next completion or to u. It reports false
// where there is no twin to speak of: an idle link, no room for one more
// packet, or a cross chunk smaller than a packet (outside the theorem;
// the planner's gate refuses it).
func twinBaseline(linkKbit, crossPct, capPkts, fillPkts, flags uint8, sched []byte) (base model.State, ok bool) {
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
	base = model.Initial(p, flags&2 != 0)
	if len(sched) == 0 {
		return base, false
	}

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
		return base, false
	}
	switch {
	case flags&8 != 0:
		base.NextCross = base.ServiceDone
	case flags&16 != 0:
		base.NextCross = base.BacklogDone()
	}
	return base, p.CrossBits() >= x
}
