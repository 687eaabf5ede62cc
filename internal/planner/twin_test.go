package planner

import (
	"math"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/rollout"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// saturated builds a hypothesis standing at now on a 12 kbit/s link (one
// 12 000-bit packet a second): a packet in service until now+done, queued
// packets of the given sizes behind it, a pinger of chunk-bit emissions
// every ivl with its next tick at now+tick, and a buffer of capBits.
func saturated(now, done, tick, ivl time.Duration, chunk, capBits int64, queued ...int64) model.State {
	p := model.Params{LinkRate: 12000, BufferCapBits: capBits, CrossPktBits: chunk}
	p.CrossRate = units.BitRate(float64(chunk) / ivl.Seconds())
	s := model.Initial(p, true)
	s.Now, s.NextCross = now, now+tick
	s.Serving, s.InService, s.ServiceDone = true, model.QPkt{Seq: -1, Bits: queued[0], EnqueuedAt: now}, now+done
	for _, bits := range queued[1:] {
		s.Queue = append(s.Queue, model.QPkt{Seq: -1, Bits: bits, EnqueuedAt: now})
		s.QueueBits += bits
	}
	return s
}

// idle is s with its link idle: nothing in service, nothing queued.
func idle(s model.State) model.State {
	s.Serving, s.Queue, s.QueueBits = false, nil, 0
	return s
}

// gateOff is s with its pinger's gate off: a quiet hypothesis.
func gateOff(s model.State) model.State {
	s.PingerOn = false
	return s
}

// TestTwinEdges walks the lagged-twin closure's boundaries on hand-built
// saturated hypotheses, three candidates each (now, +0.5 s, +1 s unless
// the row sets its own grid), every row held to the event-buffer sweep
// (refSweep) and to the counters: what closes (dropped where it forks
// included), what is deferred and then materialized, what the gate
// refuses — and, for a burst's later decisions (burst sends of the uniform
// size committed at now), what is derived from the first one's record,
// what is swept under the call's own plan after all, and what never asks.
// The last rows are quiet: nothing arrives to H.
func TestTwinEdges(t *testing.T) {
	const (
		x   = int64(12000)
		now = 9 * time.Second
		sec = time.Second
	)
	six := []int64{x, x, x, x, x, x} // in service + five queued: u₀ = done + 5 s
	roomy := 40 * x
	cases := []struct {
		name    string
		s       model.State
		horizon time.Duration // Config.Horizon; H = now + 1 s + horizon
		grid    time.Duration // 0: 500 ms; candidates at now, +grid, +2·grid
		pending []model.Send
		burst   int  // this many more sends of the uniform size at now
		exact   bool // the gate refuses: bit-equal to the event sweep
		closed  int64
		mat     int64
		// A later decision of a burst: was the first one's baseline swept
		// for it, and was its vector derived from that sweep's record? The
		// lanes are three per sweep.
		stripped, derived int64
		check             func(t *testing.T, gains []float64)
		// until, if set, is where the baseline stops before H: idle, with
		// nothing left to arrive, its log holding to H.
		until time.Duration
	}{
		{
			// u₀ = now+5.3 s, so u₀+ℓ = H exactly; the tick at +0.1 s puts
			// the later forks' u a packet further out, past H−ℓ: their
			// packets are worth 0, and what the baseline delivers after u is
			// lost.
			name: "u+lag = H closes", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, roomy, six...),
			horizon: 5300 * time.Millisecond, closed: 3,
		},
		{
			name: "u+lag = H+1ns closes too", s: saturated(now, 300*time.Millisecond+1, 100*time.Millisecond, sec, x, roomy, six...),
			horizon: 5300 * time.Millisecond, closed: 3,
		},
		{
			// The same forks — the later two past H — under ticks twice as
			// fast into a nine-packet buffer: the tick at +3.1 s leaves a twin
			// no room, four stops after the last fork. The first deferred lane
			// is simulated from its fork after all; the later two, whose
			// packets start past H, close at 0.
			name: "a dirty stop after live forks", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, 500*time.Millisecond, x, 9*x, six...),
			horizon: 5300 * time.Millisecond, closed: 2, mat: 1,
		},
		{
			// u₀ = now+5.3 s, past H = now+5 s: every packet starts after H,
			// A(H) stands in for A(u), and every tick before H finds room.
			name: "a packet that starts after H", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, 500*time.Millisecond, x, roomy, six...),
			horizon: 4 * sec, closed: 3,
		},
		{
			// The same forks into the nine-packet buffer: the tick at +3.1 s,
			// before H, finds no room beside a twin's packet. Whatever the
			// twin then drops, its packet is not through by H: it closes at 0.
			name: "a packet that starts after H behind a tick with no room", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, 500*time.Millisecond, x, 9*x, six...),
			horizon: 4 * sec, closed: 3,
		},
		{
			// Ticks at +0.3 s, +1.3 s, …: on every completion, and on u₀.
			name: "an arrival exactly at u", s: saturated(now, 300*time.Millisecond, 300*time.Millisecond, sec, x, roomy, six...),
			horizon: 12 * sec, closed: 3,
		},
		{
			// Room for exactly X at every fork: admitted, deferred, and the
			// tick a tenth of a second later finds a twin with no room.
			name: "exactly x bits of room at the fork", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, 6*x, six...),
			horizon: 12 * sec, mat: 3,
		},
		{
			// One bit less: the first candidate is tail-dropped where it
			// forks (the later two fit once the head has left at +0.3 s).
			name: "x-1 bits of room at the fork", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, 6*x-1, six...),
			horizon: 12 * sec, closed: 1, mat: 2,
			check: func(t *testing.T, gains []float64) {
				if gains[0] != 0 {
					t.Errorf("the tail-dropped candidate gains %v, want 0", gains[0])
				}
			},
		},
		{
			name: "a pending send after now", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, roomy, six...),
			horizon: 12 * sec, pending: []model.Send{{Seq: 4, At: now + 200*time.Millisecond}}, exact: true,
		},
		{
			// Three-packet chunks in a nine-packet buffer, full: the head
			// leaves at +0.6 s, the candidate of +1 s gets in behind two
			// chunks, and the chunk of +1.2 s takes the room a twin would
			// need. The twin, a chunk short, idles at +13.6 s and has
			// nothing to deliver at +16.6 s, inside H = +17 s, where a
			// lagged baseline would.
			name: "a tight arrival shows inside the horizon", s: saturated(now, 600*time.Millisecond, 1200*time.Millisecond, 7*sec, 3*x, 9*x, 3*x, 3*x, 3*x, 3*x),
			horizon: 16 * sec, closed: 2, mat: 1,
		},
		{
			// A burst's third decision. The link serves packet after packet,
			// ticks from +3.5 s on find a drained queue, and the two packets
			// committed at now fill the buffer to the bit: the candidate of
			// now is dropped behind them, the later two get in once the head
			// has left at +0.3 s.
			name: "two packets at now fill the buffer exactly", s: saturated(now, 300*time.Millisecond, 3500*time.Millisecond, sec, x, 7*x, six...),
			horizon: 12 * sec, burst: 2, closed: 3, stripped: 1, derived: 1,
			check: func(t *testing.T, gains []float64) {
				if gains[0] != 0 {
					t.Errorf("the candidate dropped behind the burst's packets gains %v, want 0", gains[0])
				}
			},
		},
		{
			// One bit less and the second of them is dropped on arrival: the
			// decision's baseline is not the first one's two packets late, the
			// record says so, and the call sweeps it (its candidate of now
			// dropped where it forks).
			name: "one bit short of two packets at now", s: saturated(now, 300*time.Millisecond, 3500*time.Millisecond, sec, x, 7*x-1, six...),
			horizon: 12 * sec, burst: 2, closed: 3 + 3, stripped: 1,
		},
		{
			// Nothing queued behind the packet in service, which leaves at
			// +1 s: u₀ is the second candidate's fork and u₀+ℓ the third's,
			// each at the very start of a service. The twin one packet behind
			// still holds that packet there; the buffer has room.
			name: "forks at u0 and at u0+lag", s: saturated(now, sec, 500*time.Millisecond, sec, x, roomy, x),
			grid: sec, horizon: 12 * sec, burst: 1, closed: 3, stripped: 1, derived: 1,
		},
		{
			// Forks at +0.75 s and +1.5 s on a link whose packet in service
			// leaves at +0.5 s, a three-packet chunk queued behind it: the
			// chunk has been in service for exactly one ℓ at the last fork —
			// the twin has just begun it too, and holds nothing more than the
			// baseline — and for a quarter of one at the middle fork, where
			// the twin still holds all of it.
			name: "in service for exactly one lag at a fork", s: saturated(now, 500*time.Millisecond, 250*time.Millisecond, 3*sec, 3*x, roomy, x),
			grid: 750 * time.Millisecond, horizon: 12 * sec, burst: 1, closed: 3, stripped: 1, derived: 1,
		},
		{
			// A fork at +0.75 s, a quarter of a service in, two packets
			// behind, in a buffer where the twin's surplus decides: it holds
			// between x and 3x more than the baseline's x, and there is room
			// for 2x and the candidate's packet — not known from the baseline.
			// (The tick at +0.25 s had already left a twin that deep no room:
			// no verdict is ambiguous before the watch has reported.)
			name: "an ambiguous verdict", s: saturated(now, 500*time.Millisecond, 250*time.Millisecond, sec, x, 7*x/2, x),
			grid: 750 * time.Millisecond, horizon: 12 * sec, burst: 2, closed: 3, mat: 3, stripped: 1,
		},
		{
			name: "four packets at now", s: saturated(now, 300*time.Millisecond, 3500*time.Millisecond, sec, x, roomy, six...),
			horizon: 12 * sec, burst: 4, closed: 3,
		},
		{
			name: "a trailing send of another size", s: saturated(now, 300*time.Millisecond, 3500*time.Millisecond, sec, x, roomy, six...),
			horizon: 12 * sec, pending: []model.Send{{Seq: 5, At: now}, {Seq: 6, At: now, Bits: x / 2}}, closed: 3,
		},
		{
			name: "a trailing send stamped before now", s: saturated(now-100*time.Millisecond, 400*time.Millisecond, 3600*time.Millisecond, sec, x, roomy, six...),
			horizon: 12 * sec, pending: []model.Send{{Seq: 6, At: now - 50*time.Millisecond}}, closed: 3,
		},
		{
			// The link idle at now, the next tick at +2.5 s: every candidate
			// goes straight into service and the gap absorbs it, the last
			// (forked at +1 s) exactly at the stop of +2 s.
			name: "an idle fork closes", s: idle(saturated(now, sec, 2500*time.Millisecond, 3*sec, x, roomy, x)),
			horizon: 12 * sec, closed: 3,
		},
		{
			// The packet in service leaves at +0.3 s, the tick comes at +0.8 s
			// and every 1.4 s after: gaps of 0.5 s and 0.4 s, each shorter than
			// ℓ, so each lag outlives a gap or two before one absorbs it.
			name: "a gap shorter than lag", s: saturated(now, 300*time.Millisecond, 800*time.Millisecond, 1400*time.Millisecond, x, roomy, x),
			horizon: 12 * sec, closed: 3,
		},
		{
			// The link runs dry at +0.3 s, the first candidate's u, and the tick
			// refills it at +1.3 s: its twin's packet leaves at that instant.
			name: "a gap of exactly lag", s: saturated(now, 300*time.Millisecond, 1300*time.Millisecond, 3*sec, x, roomy, x),
			horizon: 12 * sec, closed: 3,
		},
		{
			// The link idles from +0.3 s to the two-packet chunk of +1.5 s,
			// which fills a two-packet buffer; the chunk of +2.5 s then
			// queues behind it and leaves a twin no room. By the stop of
			// +2 s the gap has absorbed the lags of the first two forks, so
			// the log closes them at that stop; the third, forked at +1 s,
			// still owes half a service and is simulated after all.
			name: "a dirty stop after a gap absorbed the first lags", s: saturated(now, 300*time.Millisecond, 1500*time.Millisecond, sec, 2*x, 2*x, x),
			horizon: 12 * sec, closed: 2, mat: 1,
		},
		{
			// Three-packet chunks into a two-packet buffer: the chunk of +0.8 s
			// ends a gap the deferred twins still owe work in, and they could
			// not have queued it. The third candidate, forked behind it, is
			// caught by the chunk of +3.8 s, which arrives as the link runs dry.
			name: "a gap-ending chunk larger than the buffer", s: saturated(now, 300*time.Millisecond, 800*time.Millisecond, 3*sec, 3*x, 2*x, x),
			horizon: 12 * sec, mat: 3,
		},
		{
			// Six packets to +5.3 s, then ticks from +5.6 s every second, each
			// on the instant the link runs dry: a gap of 0.3 s leaves every twin
			// 0.7 s behind to H = +9 s, with the last delivery before H sliding
			// past it.
			name: "a lag still in flight at H", s: saturated(now, 300*time.Millisecond, 5600*time.Millisecond, sec, x, roomy, six...),
			horizon: 8 * sec, closed: 3,
		},
		{
			// The later decisions of a burst on a baseline that idles: the
			// first one's log closes them, gaps and all. A gap of 0.5 s from
			// +0.3 s, shorter than ℓ, then ticks a little faster than the link
			// serves: the later baselines' lags of one to three packets are
			// carried to H = +13 s, less the gap.
			name: "a gap shorter than lag, one deep", s: saturated(now, 300*time.Millisecond, 800*time.Millisecond, 990*time.Millisecond, x, roomy, x),
			horizon: 12 * sec, burst: 1, closed: 3, stripped: 1, derived: 1,
		},
		{
			name: "a gap shorter than lag, two deep", s: saturated(now, 300*time.Millisecond, 800*time.Millisecond, 990*time.Millisecond, x, roomy, x),
			horizon: 12 * sec, burst: 2, closed: 3, stripped: 1, derived: 1,
		},
		{
			// Two-packet chunks after the gap, a little faster than the link
			// serves them: deliveries every 2 s from +2.8 s. Three deep the
			// candidate owes 3.5 s at H = +14.5 s: the cut at +11 s falls
			// between the deliveries of +10.8 s and +12.8 s, the baseline's at
			// +12 s too, both in H's last 4ℓ — and a cut at H−4ℓ and H−3ℓ, as
			// if nothing were absorbed, would move the delivery of +10.8 s
			// from one side of the candidate's cut to the other.
			name: "a partly absorbed lag cut between deliveries", s: saturated(now, 300*time.Millisecond, 800*time.Millisecond, 1980*time.Millisecond, 2*x, roomy, x),
			horizon: 13500 * time.Millisecond, burst: 3, closed: 3, stripped: 1, derived: 1,
		},
		{
			// One deep with H = +13.3 s the cut at H−1.5 s is a delivery's own
			// instant.
			name: "a cut on a delivery", s: saturated(now, 300*time.Millisecond, 800*time.Millisecond, 990*time.Millisecond, x, roomy, x),
			horizon: 12300 * time.Millisecond, burst: 1, closed: 3, stripped: 1, derived: 1,
		},
		{
			// The burst's packet fills the buffer at now, and the tick of
			// +0.09 s that the baseline queues finds its twin full: the later
			// decision's baseline is not a lag of the first's, so no verdict
			// of the log holds for it — not even the drop it would read for
			// every candidate.
			name: "a tick the burst's packet leaves no room for", s: saturated(now, sec, 90*time.Millisecond, 1430*time.Millisecond, x, 6*x, six...),
			horizon: 12 * sec, burst: 1, closed: 3, mat: 3, stripped: 1,
		},
		{
			// Gaps of 0.5 s and then 0.4 s every 1.4 s: three packets deep the
			// lag is carried across nine of them and is still owed at H.
			name: "many gaps, three deep", s: saturated(now, 300*time.Millisecond, 800*time.Millisecond, 1400*time.Millisecond, x, roomy, x),
			horizon: 12 * sec, burst: 3, closed: 3, stripped: 1, derived: 1,
		},
		{
			// A gap of 2 s from +0.3 s: it absorbs a lag one packet deep and
			// leaves one of three a second, carried to H through ticks every
			// 1.5 s.
			name: "a gap that absorbs depth 1", s: saturated(now, 300*time.Millisecond, 2300*time.Millisecond, 1500*time.Millisecond, x, roomy, x),
			horizon: 12 * sec, burst: 1, closed: 3, stripped: 1, derived: 1,
		},
		{
			name: "a gap that does not absorb depth 3", s: saturated(now, 300*time.Millisecond, 2300*time.Millisecond, 1500*time.Millisecond, x, roomy, x),
			horizon: 12 * sec, burst: 3, closed: 3, stripped: 1, derived: 1,
		},
		{
			// The gate off and the link idle: each candidate goes straight
			// into service behind the burst's packets.
			name: "a quiet idle fork derives", s: gateOff(idle(saturated(now, sec, 2500*time.Millisecond, 3*sec, x, roomy, x))),
			horizon: 12 * sec, burst: 2, closed: 3, stripped: 1, derived: 1,
		},
		{
			// Forks at now, +0.1 s and +0.2 s, all behind the packet leaving at
			// +0.3 s; the link then idles 1.5 s and a tick of two packets ends
			// the gap, into a buffer of three. A candidate one packet deep
			// still owes 0.5 s there, less than ℓ: its twin queues nothing
			// more, and the tick fits. Two packets deep it owes 1.5 s and may
			// queue two packets more: the tick may not fit, and the log cannot
			// say.
			name: "a gap-ending tick with room one deep", s: saturated(now, 300*time.Millisecond, 1800*time.Millisecond, 3*sec, 2*x, 3*x, x),
			grid: 100 * time.Millisecond, horizon: 12 * sec, burst: 1, closed: 3, stripped: 1, derived: 1,
		},
		{
			name: "a gap-ending tick without room two deep", s: saturated(now, 300*time.Millisecond, 1800*time.Millisecond, 3*sec, 2*x, 3*x, x),
			grid: 100 * time.Millisecond, horizon: 12 * sec, burst: 2, closed: 3 + 3, stripped: 1,
		},
		{
			// Quiet: nothing arrives to H, so every lane closes with its
			// packet's value, at u₀+ℓ = +6.3 s behind the backlog.
			name: "a busy link with the gate off", s: gateOff(saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, roomy, six...)),
			horizon: 12 * sec, closed: 3,
		},
		{
			name: "a tick 1ns past H", s: saturated(now, 300*time.Millisecond, 13*sec+1, sec, x, roomy, six...),
			horizon: 12 * sec, closed: 3,
		},
		{
			// The packet in service leaves at +0.3 s and the next tick is past
			// H: the link idles from there with nothing left to arrive. The
			// log, kept four packets deep for a burst's later decisions, owes
			// work to +5 s from the last fork at +1 s, but the baseline stops
			// at the first stop after that fork.
			name: "a link idle before H with nothing left to arrive", s: saturated(now, 300*time.Millisecond, 13*sec+1, sec, x, roomy, x),
			horizon: 12 * sec, closed: 3, until: 2 * sec,
		},
		{
			// The same with five packets queued: the link is busy at the last
			// fork and runs dry at u₀ = +5.3 s, where the baseline stops —
			// nothing arrives before H, so no stop on the way is read.
			name: "a busy link that runs dry before H with nothing left to arrive", s: saturated(now, 300*time.Millisecond, 13*sec+1, sec, x, roomy, six...),
			horizon: 12 * sec, closed: 3, until: 5300 * time.Millisecond,
		},
		{
			// u₀+ℓ = H+1ns at every fork: each lane closes at 0.
			name: "a quiet lane through at H+1ns", s: gateOff(saturated(now, 300*time.Millisecond+1, 100*time.Millisecond, sec, x, roomy, six...)),
			horizon: 5300 * time.Millisecond, closed: 3,
			check: func(t *testing.T, gains []float64) {
				for k, g := range gains {
					if g != 0 {
						t.Errorf("candidate %d, through after H, gains %v, want 0", k, g)
					}
				}
			},
		},
		{
			// A full buffer: the candidate of now is dropped where it forks; the
			// later two get in once the head has left at +0.3 s.
			name: "a quiet full buffer", s: gateOff(saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, 5*x, six...)),
			horizon: 12 * sec, closed: 3,
			check: func(t *testing.T, gains []float64) {
				if gains[0] != 0 || gains[1] <= 0 {
					t.Errorf("gains %v, want the dropped candidate at 0 and the next one's packet", gains)
				}
			},
		},
		{
			// A burst's third decision on a quiet hypothesis: each candidate's
			// packet leaves two service times after the first decision's, so
			// its gain is that one's times e^(−2ℓ/κ), derived from the record.
			name: "a quiet burst derives", s: gateOff(saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, roomy, six...)),
			horizon: 12 * sec, burst: 2, closed: 3, stripped: 1, derived: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Util: utility.Default(), MaxDelay: sec, Grid: 500 * time.Millisecond, Horizon: tc.horizon, Workers: 1}
			if tc.grid > 0 {
				cfg.MaxDelay, cfg.Grid = 2*tc.grid, tc.grid
			}
			for i := 0; i < tc.burst; i++ {
				tc.pending = append(tc.pending, model.Send{Seq: int64(i), At: now})
			}
			row := func(s model.State, pending []model.Send, now time.Duration) ([]float64, MemoStats) {
				cfg.Pool = rollout.New(1)
				Decide([]belief.Hypothesis{{S: s, W: 1}}, pending, now, 7, cfg)
				return arenaOf(cfg.Pool).gains, PoolMemoStats(cfg.Pool)
			}
			gains, st := row(tc.s.Clone(), tc.pending, now)
			if tc.until > 0 {
				ds := cfg.Pool.Scratch(0).Aux.(*decideScratch)
				if lg := &arenaOf(cfg.Pool).logs[0]; ds.tw.prev != now+tc.until || lg.logEnd != lg.horizon {
					t.Errorf("the baseline stopped at +%v, its log reaching +%v; want +%v and H = +%v", ds.tw.prev-now, lg.logEnd-now, tc.until, lg.horizon-now)
				}
			}
			h := belief.Hypothesis{S: tc.s.Clone(), W: 1}
			want := refSweep(&h, 0, tc.pending, now, 7, cfg.withDefaults())
			for k := range want {
				tol := 1e-9 * float64(x)
				if tc.exact {
					tol = 0
				}
				if math.Float64bits(gains[k]) != math.Float64bits(want[k]) && !(math.Abs(gains[k]-want[k]) <= tol) {
					t.Errorf("candidate %d gains %v, the event sweep %v", k, gains[k], want[k])
				}
			}
			if lanes := 3 * (tc.stripped + 1 - tc.derived); st.Lanes != lanes || st.Closed != tc.closed || st.Materialized != tc.mat {
				t.Errorf("%d lanes, %d closed, %d materialized; want %d, %d, %d", st.Lanes, st.Closed, st.Materialized, lanes, tc.closed, tc.mat)
			}
			if st.Stripped != tc.stripped || st.Derived != tc.derived {
				t.Errorf("%d stripped, %d derived; want %d, %d", st.Stripped, st.Derived, tc.stripped, tc.derived)
			}
			if tc.check != nil {
				tc.check(t, gains)
			}

			// The same hypothesis presented 7.919 s later: every input of
			// the closure is relative to the decision instant, so the row
			// is the same to the bit (what lets the memo serve it).
			const shift = 7919 * time.Millisecond
			moved := tc.s.Clone()
			moved.Rebase(shift)
			pending := append([]model.Send(nil), tc.pending...)
			for i := range pending {
				pending[i].At += shift
			}
			later, _ := row(moved, pending, now+shift)
			for k := range gains {
				if math.Float64bits(later[k]) != math.Float64bits(gains[k]) {
					t.Errorf("candidate %d gains %v at %v and %v at %v", k, gains[k], now, later[k], now+shift)
				}
			}
		})
	}
}
