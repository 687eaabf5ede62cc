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

// TestTwinEdges walks the lagged-twin closure's boundaries on hand-built
// saturated hypotheses, three candidates each (now, +0.5 s, +1 s), every
// row held to the event-buffer sweep (refSweep) and to the lane counters:
// what closes, what is simulated from its fork, what is deferred and then
// materialized, and what the gate refuses.
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
		pending []model.Send
		exact   bool // the gate refuses: bit-equal to the event sweep
		closed  int64
		mat     int64
		check   func(t *testing.T, gains []float64)
	}{
		{
			// u₀ = now+5.3 s, so u₀+ℓ = H exactly; the tick at +0.1 s puts
			// the later forks' u a packet further out, past H−ℓ.
			name: "u+lag = H closes", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, sec, x, roomy, six...),
			horizon: 5300 * time.Millisecond, closed: 1,
		},
		{
			name: "u+lag = H+1ns is simulated", s: saturated(now, 300*time.Millisecond+1, 100*time.Millisecond, sec, x, roomy, six...),
			horizon: 5300 * time.Millisecond, closed: 0,
		},
		{
			// The same fork — the first candidate deferred, the later two
			// live from theirs because their u+ℓ is past H — under ticks
			// twice as fast into a nine-packet buffer: the tick at +3.1 s
			// leaves a twin no room, four stops after the live lanes forked.
			// Only the deferred lane sat those stops out.
			name: "a dirty stop after live forks", s: saturated(now, 300*time.Millisecond, 100*time.Millisecond, 500*time.Millisecond, x, 9*x, six...),
			horizon: 5300 * time.Millisecond, mat: 1,
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
			horizon: 12 * sec, mat: 2,
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
			horizon: 16 * sec, mat: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Util: utility.Default(), MaxDelay: sec, Grid: 500 * time.Millisecond, Horizon: tc.horizon, Workers: 1}
			row := func(s model.State, pending []model.Send, now time.Duration) ([]float64, MemoStats) {
				cfg.Pool = rollout.New(1)
				Decide([]belief.Hypothesis{{S: s, W: 1}}, pending, now, 7, cfg)
				return arenaOf(cfg.Pool).gains, PoolMemoStats(cfg.Pool)
			}
			gains, st := row(tc.s.Clone(), tc.pending, now)
			h := belief.Hypothesis{S: tc.s.Clone(), W: 1}
			want := refSweep(&h, tc.pending, now, 7, cfg.withDefaults())
			for k := range want {
				tol := 1e-9 * float64(x)
				if tc.exact {
					tol = 0
				}
				if math.Float64bits(gains[k]) != math.Float64bits(want[k]) && !(math.Abs(gains[k]-want[k]) <= tol) {
					t.Errorf("candidate %d gains %v, the event sweep %v", k, gains[k], want[k])
				}
			}
			if st.Lanes != 3 || st.Closed != tc.closed || st.Materialized != tc.mat {
				t.Errorf("%d lanes, %d closed, %d materialized; want 3, %d, %d", st.Lanes, st.Closed, st.Materialized, tc.closed, tc.mat)
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
