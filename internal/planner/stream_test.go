package planner

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/model"
	"modelcc/internal/rollout"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// refRun is State.Run as it was before the advance loop was rebuilt
// around arrivals, written against State's exported fields so that it
// shares no code with the loop under test: one event per iteration, the
// earliest of link completion, pinger emission and send, a tie going to
// the first of them in that order.
func refRun(s *model.State, until time.Duration, sends []model.Send, out *[]model.Event) {
	admit := func(q model.QPkt) {
		q.EnqueuedAt = s.Now
		switch {
		case !s.Serving:
			s.Serving, s.InService = true, q
			s.ServiceDone = s.Now + units.TransmitTime(q.Bits, s.P.LinkRate)
		case s.QueueBits+q.Bits > s.P.BufferCapBits:
			kind := model.CrossBufferDrop
			if q.Own {
				kind = model.OwnBufferDrop
			}
			*out = append(*out, model.Event{Kind: kind, Seq: int64(q.Seq), At: s.Now, Bits: q.Bits})
		default:
			s.Queue = append(s.Queue, q)
			s.QueueBits += q.Bits
		}
	}
	for {
		next, kind := until+1, -1
		if s.Serving && s.ServiceDone <= until {
			next, kind = s.ServiceDone, 0
		}
		if s.NextCross <= until && s.NextCross < next {
			next, kind = s.NextCross, 1
		}
		if len(sends) > 0 && sends[0].At <= until && sends[0].At < next {
			next, kind = sends[0].At, 2
		}
		switch kind {
		case -1:
			if s.Now < until {
				s.Now = until
			}
			return
		case 0:
			q := s.InService
			s.Now, s.Serving = next, false
			ev := model.Event{Kind: model.CrossDelivered, Seq: int64(q.Seq), At: s.Now, Bits: q.Bits, Delay: s.Now - q.EnqueuedAt}
			if q.Own {
				ev.Kind = model.OwnDelivered
			}
			*out = append(*out, ev)
			if s.QLen() > 0 {
				head := s.Queue[s.QHead]
				s.QHead++
				s.QueueBits -= head.Bits
				s.Serving, s.InService = true, head
				s.ServiceDone = s.Now + units.TransmitTime(head.Bits, s.P.LinkRate)
			}
		case 1:
			s.Now = next
			s.NextCross += s.P.CrossInterval()
			if s.PingerOn {
				admit(model.QPkt{Seq: -1, Bits: s.P.CrossBits()})
			}
		case 2:
			s.Now = next
			bits := sends[0].Bits
			if bits <= 0 {
				bits = s.P.PktBits()
			}
			admit(model.QPkt{Own: true, Seq: int32(sends[0].Seq), Bits: bits})
			sends = sends[1:]
		}
	}
}

// refMeter is utility.Meter as it was when it held the discount
// arithmetic itself: an eight-entry step cache of its own, emptied by
// every Reset, and a segment sum local to Add.
type refMeter struct {
	alpha, survive, penalty float64
	t0                      time.Duration
	invK                    float64
	lastTau                 time.Duration
	lastD                   float64
	cache                   [8]struct {
		dt time.Duration
		f  float64
	}
}

func (m *refMeter) Reset(c utility.Config, t0 time.Duration, p float64) {
	*m = refMeter{alpha: c.Alpha, survive: 1 - p, penalty: c.CrossLatencyPenalty, t0: t0, invK: 1 / float64(c.Kappa), lastD: 1}
}

func (m *refMeter) discount(tau time.Duration) float64 {
	if tau <= 0 {
		return 1
	}
	dt := tau - m.lastTau
	if dt < 0 {
		return math.Exp(-float64(tau) * m.invK)
	}
	if dt > 0 {
		e := &m.cache[(uint64(dt)*0x9e3779b97f4a7c15)>>61]
		if e.dt != dt {
			e.dt = dt
			e.f = math.Exp(-float64(dt) * m.invK)
		}
		m.lastD *= e.f
		m.lastTau = tau
	}
	return m.lastD
}

func (m *refMeter) Add(evs []model.Event) float64 {
	var u float64
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case model.OwnDelivered:
			u += float64(ev.Bits) * m.survive * m.discount(ev.At-m.t0)
		case model.CrossDelivered:
			u += m.alpha * float64(ev.Bits) * m.survive * m.discount(ev.At-m.t0)
			if m.penalty > 0 {
				u -= m.penalty * float64(ev.Bits) * ev.Delay.Seconds()
			}
		}
	}
	return u
}

// refSweep is Decide's per-hypothesis sweep as it was when every segment
// went through an event buffer: the advance appends the segment's
// events, a meter reads them back, valuing deliveries at survival 1−p. It
// returns the hypothesis's gain per candidate.
func refSweep(h *belief.Hypothesis, p float64, pending []model.Send, now time.Duration, seq int64, cfg Config) []float64 {
	candidates := int(cfg.MaxDelay/cfg.Grid) + 1
	horizonEnd := now + cfg.MaxDelay + cfg.Horizon
	var stops []time.Duration
	for k := 0; k < candidates; k++ {
		stops = append(stops, now+time.Duration(k)*cfg.Grid)
	}
	for t := now + cfg.MaxDelay + lockstepChunk; t < horizonEnd; t += lockstepChunk {
		stops = append(stops, t)
	}
	stops = append(stops, horizonEnd)

	var evs []model.Event
	var baseMeter refMeter
	base := h.S.Clone()
	baseMeter.Reset(cfg.Util, now, p)
	cands := make([]model.State, candidates)
	meters := make([]refMeter, candidates)
	candSends := make([][]model.Send, candidates)
	sendIdx := make([]int, candidates)
	done := make([]bool, candidates)
	gains := make([]float64, candidates)

	forked, live := 0, 0
	fork := func(k int) {
		cands[k] = base.Clone()
		meters[k].Reset(cfg.Util, now, p)
		candSends[k] = []model.Send{{Seq: seq, At: stops[k]}}
		for _, snd := range pending {
			if snd.At > stops[k] {
				candSends[k] = append(candSends[k], snd)
			}
		}
		forked++
		live++
	}

	si := 0
	for si < len(pending) && pending[si].At <= stops[0] {
		si++
	}
	refRun(&base, stops[0], pending[:si], &evs)
	baseMeter.Add(evs)
	fork(0)

	for j := 1; j < len(stops) && (forked < candidates || live > 0); j++ {
		t := stops[j]
		hi := si
		for hi < len(pending) && pending[hi].At <= t {
			hi++
		}
		evs = evs[:0]
		refRun(&base, t, pending[si:hi], &evs)
		si = hi
		baseSegU := baseMeter.Add(evs)

		for k := 0; k < forked; k++ {
			if done[k] {
				continue
			}
			cs := candSends[k]
			cHi := sendIdx[k]
			for cHi < len(cs) && cs[cHi].At <= t {
				cHi++
			}
			evs = evs[:0]
			refRun(&cands[k], t, cs[sendIdx[k]:cHi], &evs)
			sendIdx[k] = cHi
			gains[k] += meters[k].Add(evs) - baseSegU
			if cands[k].EqualDynamic(&base) {
				done[k] = true
				live--
			}
		}
		if j < candidates {
			fork(j)
		}
	}
	return gains
}

// TestDecideStreamMatchesEventSweep: Decide's streamed sweep — deliveries
// folded straight into accumulators that share one step table per worker
// — gives, for every hypothesis, the gain vector of the event-buffer
// sweep it replaced, and so the same Decision. Calls the lagged-twin gate
// refuses outright (a cross-latency penalty) must match the sweep at the
// hypothesis's own survival bit for bit; the rest are rolled survival-free
// (reduce weighs 1−p in) and match the sweep at p = 0 — where a saturated
// hypothesis may close candidates from its baseline's running value
// instead of simulating them, within 1e-9 of a packet's bits — three
// orders under the tie band — and with an equal Decision. Each width
// plans on one long-lived pool, alternating the fleet's grid (9
// candidates, 12 s) with the precise one (13 candidates, 40 s) and two
// discount timescales, so the step table meets another κ's
// factors, the lanes another candidate count and the memo served rows,
// all of which must be invisible; generated supports carry full and
// nearly full buffers whose completions coincide with pinger ticks. A
// fifth family is shaped like a 256-sender fleet's beliefs (fleetShaped),
// where most lanes must in fact have been closed and some deferred lanes
// simulated after all. Two more are such beliefs decided the way a
// sender's wake decides — four times at one instant, a packet more
// committed each time, under α = 1 and α = 2.5 — where most of the later
// decisions' vectors must in fact have come from the first one's log,
// derived from it or stored from it into the memo when the first decision
// sent, each held to the event sweep of its own pending list like any
// other. The last two are the same on Figure 3's beliefs (fig3World):
// links that idle, so the first decision's log closes its later ones
// across gaps, idle forks and quiet hypotheses, each burst two to four
// decisions deep; more than half the later decisions' fresh vectors must
// have been derived there too.
func TestDecideStreamMatchesEventSweep(t *testing.T) {
	fleet := Config{MaxDelay: 4 * time.Second, Grid: 500 * time.Millisecond, Horizon: 12 * time.Second}
	precise := Config{Horizon: 40 * time.Second}
	penalty := utility.Config{Alpha: 2.5, Kappa: 20 * time.Second, CrossLatencyPenalty: 0.02}
	cases := []struct {
		grid   Config
		util   utility.Config
		shaped bool
		burst  int // decide again with 1 … burst more packets committed at now
		fig3   bool
	}{
		{grid: fleet, util: utility.Default()},
		{grid: precise, util: penalty},
		{grid: fleet, util: penalty},
		{grid: precise, util: utility.Default()},
		{grid: fleet, util: utility.Default(), shaped: true},
		{grid: fleet, util: utility.Config{Alpha: 2.5, Kappa: 20 * time.Second}},
		{grid: fleet, util: utility.Default(), shaped: true, burst: twinDepth},
		{grid: fleet, util: utility.Config{Alpha: 2.5, Kappa: 20 * time.Second}, shaped: true, burst: twinDepth},
		{grid: precise, util: utility.Default(), fig3: true, burst: twinDepth},
		{grid: precise, util: utility.Config{Alpha: 2.5, Kappa: utility.Default().Kappa}, fig3: true, burst: twinDepth},
	}
	calls := 72
	if testing.Short() {
		calls = 18
	}
	for _, workers := range []int{1, 4} {
		pool := rollout.New(workers)
		w := newMemoWorld(21)
		rng := rand.New(rand.NewSource(23))
		fig3 := newFig3World(24)
		rolled := int64(0)
		var shaped, later, fig3Later MemoStats
		for c := 0; c < calls; c++ {
			tc := cases[c%len(cases)]
			sup, pending, now, seq := w.call(c % 3 * c)
			tieLinkAndPinger(sup, now)
			if tc.shaped {
				pending = pending[:min(len(pending), 1)]
				from := now
				if len(pending) > 0 {
					from = pending[0].At
				}
				sup = fleetShaped(rng, from)
				if tc.burst > 0 {
					// Without the two built to leave the closure (the fifth
					// family has them), and with the burst's packets the only
					// ones at now: depths 1 … twinDepth.
					sup = sup[2:]
					if from == now {
						pending = nil
					}
				}
			}
			burst := tc.burst
			if tc.fig3 {
				sup, now = fig3.support()
				pending = nil
				burst = 1 + fig3.rng.Intn(twinDepth)
			}

			for depth := 0; depth <= burst; depth++ {
				if depth > 0 {
					pending = append(pending[:len(pending):len(pending)], model.Send{Seq: seq, At: now})
					seq++
				}
				cfg := tc.grid
				cfg.Util, cfg.Workers, cfg.Pool = tc.util, workers, pool
				before := PoolMemoStats(pool)
				got := Decide(sup, pending, now, seq, cfg)
				st := PoolMemoStats(pool)
				rolled = st.Rolled()
				if tc.shaped && tc.burst == 0 {
					shaped.Lanes += st.Lanes - before.Lanes
					shaped.Closed += st.Closed - before.Closed
					shaped.Materialized += st.Materialized - before.Materialized
				}
				if depth > 0 && !tc.fig3 {
					later.Lookups += st.Lookups - before.Lookups
					later.Derived += st.Derived - before.Derived + st.Hits - before.Hits
				}
				if depth > 0 && tc.fig3 {
					fig3Later.Lookups += st.Lookups - st.Hits - st.Shared - (before.Lookups - before.Hits - before.Shared)
					fig3Later.Derived += st.Derived - before.Derived
				}

				cfg = cfg.withDefaults()
				hyps := topK(sup, cfg.MaxHyps)
				candidates := int(cfg.MaxDelay/cfg.Grid) + 1
				exact := tc.util.CrossLatencyPenalty > 0
				var want []float64
				for i := range hyps {
					p := 0.0 // a penalty-free row is rolled survival-free
					if exact {
						p = hyps[i].S.P.LossProb
					}
					want = append(want, refSweep(&hyps[i], p, pending, now, seq, cfg)...)
				}
				have := arenaOf(pool).gains
				if len(have) != len(want) {
					t.Fatalf("%d workers, call %d: %d gains, want %d", workers, c, len(have), len(want))
				}
				for i := range want {
					tol := 1e-9 * float64(hyps[i/candidates].S.P.PktBits())
					if exact {
						tol = 0
					}
					if math.Float64bits(have[i]) != math.Float64bits(want[i]) && !(math.Abs(have[i]-want[i]) <= tol) {
						t.Fatalf("%d workers, call %d, %d more at now: hypothesis %d candidate %d gain %v, event sweep %v (allowed %g)",
							workers, c, depth, i/candidates, i%candidates, have[i], want[i], tol)
					}
				}
				ref := reduce(hyps, want, candidates, now, cfg.Grid, exact)
				if !exact {
					ref.Gain = got.Gain
				}
				if got != ref {
					t.Fatalf("%d workers, call %d, %d more at now: decided %+v, event sweep %+v", workers, c, depth, got, ref)
				}
			}
		}
		if rolled == 0 {
			t.Errorf("%d workers: nothing was rolled", workers)
		}
		if 2*shaped.Closed <= shaped.Lanes || shaped.Materialized == 0 {
			t.Errorf("%d workers: of the fleet-shaped family's %d lanes %d were closed and %d materialized, want more than half and some",
				workers, shaped.Lanes, shaped.Closed, shaped.Materialized)
		}
		if 2*later.Derived <= later.Lookups {
			t.Errorf("%d workers: of the %d hypotheses the bursts' later decisions keyed %d were derived or hits, want more than half",
				workers, later.Lookups, later.Derived)
		}
		if 2*fig3Later.Derived <= fig3Later.Lookups {
			t.Errorf("%d workers: of the %d fresh vectors the Figure 3 bursts' later decisions needed %d were derived, want more than half",
				workers, fig3Later.Lookups, fig3Later.Derived)
		}
	}
}

// fleetShaped draws a support the way a member of a 256-sender fleet
// believes (fleet.Prior at N = 256): link and buffer known, the other 255
// senders modeled as a pinger of 64-packet chunks at 0.994–0.998 of the
// link rate, 10 to 16 chunks queued (16 is the buffer, to the bit) with a
// few own packets among them, a chunk partly served. Such a link does not
// idle inside the fleet's 16 s rollouts, which is what the lagged-twin
// closure is for. The states stand at or shortly before from. The first
// two of every support are built to leave the closure instead: a tight
// arrival, and a backlog deeper than the rollout.
func fleetShaped(rng *rand.Rand, from time.Duration) []belief.Hypothesis {
	const n = 256
	pkt := int64(12000)
	var sup []belief.Hypothesis
	for len(sup) < 5+rng.Intn(6) {
		p := model.Params{
			LinkRate:      6000 * n,
			MeanSwitch:    30 * time.Second,
			BufferCapBits: 4 * pkt * n,
			CrossPktBits:  pkt * n / 4,
		}
		p.CrossRate = p.LinkRate * units.BitRate(1-(0.4+0.4*float64(rng.Intn(4)))/n)
		s := model.Initial(p, true)
		s.Now = from - time.Duration(rng.Intn(2))*time.Duration(rng.Intn(300))*time.Millisecond
		chunk := model.QPkt{Seq: -1, Bits: p.CrossBits(), EnqueuedAt: s.Now}
		s.Serving, s.InService = true, chunk
		s.ServiceDone = s.Now + 1 + time.Duration(rng.Int63n(int64(units.TransmitTime(chunk.Bits, p.LinkRate))))
		chunks := 10 + rng.Intn(7)
		tick := 1 + time.Duration(rng.Int63n(int64(p.CrossInterval())))
		switch len(sup) {
		case 0:
			// The first of every support: a full buffer whose head leaves
			// before the next chunk arrives, so a candidate gets in behind
			// fifteen chunks and the sixteenth then takes the last room —
			// the arrival a twin has no room for.
			s.Now, chunks = from, 16
			s.ServiceDone, tick = from+200*time.Millisecond, 600*time.Millisecond
		case 1:
			// The second: a buffer twice as deep holding 31 chunks, 15.85 s
			// of work against the rollout's 16 s, and chunks arriving a
			// little faster than they leave. The first candidate is
			// deferred; the tick at +0.38 s puts every later one's u+ℓ past
			// the horizon, so they are simulated from their forks; and some
			// two seconds in a chunk finds the buffer a chunk fuller and
			// leaves a twin no room — a dirty stop with one lane to catch
			// up and live lanes beside it that must be left alone.
			p.BufferCapBits, p.CrossRate = 2*p.BufferCapBits, p.LinkRate*1.02
			s.SetParams(p)
			s.Now, chunks = from, 31
			s.ServiceDone, tick = from+350*time.Millisecond, 380*time.Millisecond
		}
		for ; chunks > 0; chunks-- {
			s.Queue = append(s.Queue, chunk)
			s.QueueBits += chunk.Bits
			if rng.Intn(4) == 0 && s.QueueBits+pkt <= p.BufferCapBits-chunk.Bits*int64(chunks-1) {
				s.Queue = append(s.Queue, model.QPkt{Own: true, Seq: int32(len(s.Queue)), Bits: pkt, EnqueuedAt: s.Now})
				s.QueueBits += pkt
			}
		}
		s.NextCross = s.Now + tick
		sup = append(sup, belief.Hypothesis{S: s, W: 0.05 + rng.Float64()})
	}
	return sup
}

// fig3World draws supports the way the Figure 3 sender believes mid-run:
// the §4 prior (model.Fig3Prior), every hypothesis advanced along one
// trajectory — the same own packet sent every 0.5–3.5 s — to the instant
// of the call — each 0.3–2.7 s after the last, from 9 s on, between the
// sends — then a random 8–15 of them, weighted at random. Such links idle:
// gaps, idle forks and quiet hypotheses are the rule.
type fig3World struct {
	rng   *rand.Rand
	stock []model.State
	sends []model.Send
	now   time.Duration
}

func newFig3World(seed int64) *fig3World {
	w := &fig3World{rng: rand.New(rand.NewSource(seed)), now: 9*time.Second + 1}
	w.stock, _ = model.Fig3Prior().Enumerate()
	for at := time.Second; at < time.Hour; at += time.Duration(500+w.rng.Intn(3000)) * time.Millisecond {
		w.sends = append(w.sends, model.Send{Seq: int64(len(w.sends)), At: at})
	}
	return w
}

// support advances the stock to the next instant and draws a support
// there.
func (w *fig3World) support() ([]belief.Hypothesis, time.Duration) {
	w.now += time.Duration(300+w.rng.Intn(2400)) * time.Millisecond
	now := w.now
	for i := range w.stock {
		s := &w.stock[i]
		lo, hi := 0, 0
		for lo < len(w.sends) && w.sends[lo].At <= s.Now {
			lo++
		}
		for hi = lo; hi < len(w.sends) && w.sends[hi].At <= now; hi++ {
		}
		s.Run(now, w.sends[lo:hi], nil)
	}
	var sup []belief.Hypothesis
	for n := 8 + w.rng.Intn(8); len(sup) < n; {
		sup = append(sup, belief.Hypothesis{S: w.stock[w.rng.Intn(len(w.stock))].Clone(), W: 0.05 + w.rng.Float64()})
	}
	return sup, now
}

// tieLinkAndPinger edits every third hypothesis that is serving with its
// gate on so that the pinger's next tick falls on a link completion a
// few packets ahead, with the buffer full or one packet short of it at
// that instant: the tie the drain loop must break in the link's favour.
func tieLinkAndPinger(sup []belief.Hypothesis, now time.Duration) {
	for i := range sup {
		s := &sup[i].S
		if i%3 != 0 || !s.Serving || !s.PingerOn || s.ServiceDone <= now {
			continue
		}
		pkt := s.P.PktBits()
		for s.QueueBits+pkt <= s.P.BufferCapBits-int64(i/3%2)*pkt {
			s.Queue = append(s.Queue, model.QPkt{Seq: -1, Bits: pkt, EnqueuedAt: s.Now})
			s.QueueBits += pkt
		}
		s.NextCross = s.ServiceDone + 2*s.P.ServiceTime()
	}
}

// TestDecideSteadyStateAllocs: on one worker, once the pool's arenas have
// grown, a Decide allocates nothing — neither when the warm memo serves
// every hypothesis nor when every hypothesis is rolled (each call a
// nanosecond later than the last, so no key recurs), nor over a burst of
// four decisions on a fleet-shaped support, the later three derived from
// the record the first leaves, followed by a third decision whose first
// was never made on the pool and has to be swept for it, nor over a burst
// on Figure 3's beliefs, whose records log gaps.
func TestDecideSteadyStateAllocs(t *testing.T) {
	sup, pending, now, seq := newMemoWorld(31).call(0)
	cfg := Config{Horizon: 12 * time.Second, Workers: 1, Pool: rollout.New(1)}
	memo := func() MemoStats { return PoolMemoStats(cfg.Pool) }

	Decide(sup, pending, now, seq, cfg)
	before := memo()
	if allocs := testing.AllocsPerRun(20, func() { Decide(sup, pending, now, seq, cfg) }); allocs != 0 {
		t.Errorf("Decide served from a warm memo allocates %v times per call, want 0", allocs)
	}
	if st := memo(); st.Hits-before.Hits != st.Lookups-before.Lookups {
		t.Errorf("warm calls were not all hits: %+v after %+v", st, before)
	}

	before = memo()
	if allocs := testing.AllocsPerRun(20, func() {
		now++
		Decide(sup, pending, now, seq, cfg)
	}); allocs != 0 {
		t.Errorf("Decide rolling every hypothesis allocates %v times per call, want 0", allocs)
	}
	if st := memo(); st.Hits != before.Hits {
		t.Errorf("novel calls hit the memo: %+v after %+v", st, before)
	}

	now = 9 * time.Second
	sup = fleetShaped(rand.New(rand.NewSource(32)), now)
	fleet := Config{MaxDelay: 4 * time.Second, Grid: 500 * time.Millisecond, Horizon: 12 * time.Second, Workers: 1, Pool: cfg.Pool}
	var sends [twinDepth]model.Send
	burst := func() {
		now++
		for depth := 0; depth <= twinDepth; depth++ {
			if depth > 0 {
				sends[depth-1] = model.Send{Seq: int64(depth), At: now}
			}
			Decide(sup, sends[:depth], now, seq, fleet)
		}
		now++
		sends[0].At, sends[1].At = now, now
		Decide(sup, sends[:2], now, seq, fleet)
	}
	burst()
	before = memo()
	if allocs := testing.AllocsPerRun(20, burst); allocs != 0 {
		t.Errorf("a burst of four decisions allocates %v times, want 0", allocs)
	}
	if st := memo(); st.Derived == before.Derived || st.Stripped == before.Stripped || st.Hits != before.Hits {
		t.Errorf("the bursts derived nothing, swept no first decision for a later one, or hit the memo: %+v after %+v", st, before)
	}

	// The same over Figure 3's beliefs, whose links idle: the later
	// decisions close from logs with gaps in them.
	sup, now = newFig3World(33).support()
	gapped := Config{Workers: 1, Pool: cfg.Pool}
	gappedBurst := func() {
		now++
		for depth := 0; depth <= twinDepth; depth++ {
			if depth > 0 {
				sends[depth-1] = model.Send{Seq: int64(depth), At: now}
			}
			Decide(sup, sends[:depth], now, seq, gapped)
		}
	}
	gappedBurst()
	before = memo()
	if allocs := testing.AllocsPerRun(20, gappedBurst); allocs != 0 {
		t.Errorf("a burst over a gapped baseline allocates %v times, want 0", allocs)
	}
	if st := memo(); st.Derived == before.Derived || st.Hits != before.Hits {
		t.Errorf("the gapped bursts derived nothing or hit the memo: %+v after %+v", st, before)
	}
}
