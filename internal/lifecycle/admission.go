package lifecycle

import (
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/packet"
	"modelcc/internal/sim"
)

// ChurnConfig describes a deterministic churn schedule: per-epoch
// departure/crash/arrival probabilities drawn from a seeded chaos
// stream. Zero values take the noted defaults (WithDefaults).
type ChurnConfig struct {
	// Epoch is the schedule's decision period (default 10 s virtual).
	Epoch time.Duration
	// DepartProb is each live member's per-epoch probability of leaving
	// permanently. The three probabilities default to 0.04 / 0.06 / 0.5
	// only when all three are zero, so one of them can be zero beside a
	// non-zero other.
	DepartProb float64
	// CrashProb is each live member's per-epoch probability of being
	// crash-killed at a uniformly drawn instant inside the epoch; the
	// Supervisor then restarts it.
	CrashProb float64
	// ArriveProb is, per open slot below MaxLive, the per-epoch
	// probability a new member arrives.
	ArriveProb float64
	// MinLive floors the live population: departures and crashes are
	// suppressed when they would drop below it (default N/4, at least 1).
	MinLive int
	// MaxLive caps the live population (default: the fleet's configured
	// N).
	MaxLive int
}

// WithDefaults returns the schedule with every zero field replaced by
// its documented default, for a fleet configured at n members. It is
// the one place the defaults are written: both runtimes, the churn
// experiment and fleetsim's flags read them from here.
func (c ChurnConfig) WithDefaults(n int) ChurnConfig {
	if c.Epoch <= 0 {
		c.Epoch = 10 * time.Second
	}
	if c.DepartProb == 0 && c.CrashProb == 0 && c.ArriveProb == 0 {
		c.DepartProb, c.CrashProb, c.ArriveProb = 0.04, 0.06, 0.5
	}
	if c.MinLive <= 0 {
		c.MinLive = n / 4
		if c.MinLive < 1 {
			c.MinLive = 1
		}
	}
	if c.MaxLive <= 0 {
		c.MaxLive = n
	}
	return c
}

// Admission drives churn — arrivals, departures, crash-kills — from a
// chaos.Sub("churn") stream, entirely on the fleet's discrete-event
// loop. The same seed replays the same churn schedule bit-identically,
// because every draw happens in member-index order at deterministic
// epoch instants.
type Admission struct {
	Sup *Supervisor
	Cfg ChurnConfig

	src     *chaos.Source
	timer   *sim.Timer
	started bool
	stopped bool
	scratch []packet.FlowID
	// Epochs counts completed schedule ticks.
	Epochs int
}

// NewAdmission builds the churn controller for the supervisor's fleet.
// The schedule derives from ch.Sub("churn"), so runs that also inject
// packet-level chaos keep the two streams independent.
func NewAdmission(sup *Supervisor, cfg ChurnConfig, ch chaos.Config) *Admission {
	a := &Admission{
		Sup: sup,
		Cfg: cfg.WithDefaults(sup.FL.Cfg.N),
		src: ch.Sub("churn").Source(),
	}
	a.timer = sim.NewTimer(sup.FL.Loop, a.epoch)
	return a
}

// Start arms the epoch timer. Idempotent.
func (a *Admission) Start() {
	if a.started || a.stopped {
		return
	}
	a.started = true
	a.timer.Arm(a.Cfg.Epoch)
}

// Stop halts the schedule (already-scheduled mid-epoch crash-kills
// still fire; the Supervisor ignores them once stopped members are
// gone). Idempotent.
func (a *Admission) Stop() {
	if a.stopped {
		return
	}
	a.stopped = true
	a.timer.Stop()
}

// epoch makes one round of churn decisions. Draw order is fixed —
// one uniform per live member in flow-index order, then one per open
// slot — so the schedule is a pure function of the seed and the
// (deterministic) population history.
func (a *Admission) epoch() {
	if a.stopped {
		return
	}
	fl := a.Sup.FL
	now := fl.Loop.Now()
	live := fl.Live()
	leaving := 0   // MinLive guard: crashes and departures both shrink the population
	departing := 0 // only departures free capacity — a crashed slot stays reserved for its restart
	// Snapshot the active index (ascending flow order — the same order
	// the old full-slot scan visited live members in, so the draw
	// sequence is unchanged); Depart mutates the index mid-loop.
	a.scratch = fl.ActiveFlows(a.scratch[:0])
	for _, flow := range a.scratch {
		u := a.src.Float64()
		canLeave := live-leaving > a.Cfg.MinLive
		switch {
		case u < a.Cfg.CrashProb:
			if !canLeave {
				continue
			}
			// Crash mid-epoch at a drawn fraction of the period. The
			// kill targets whatever occupies the flow when it fires —
			// crashes are abrupt by definition.
			frac := a.src.Float64()
			at := now + time.Duration(frac*float64(a.Cfg.Epoch))
			flow := flow
			fl.Loop.Schedule(at, func() {
				if !a.stopped {
					a.Sup.Kill(flow)
				}
			})
			leaving++
		case u < a.Cfg.CrashProb+a.Cfg.DepartProb:
			if !canLeave {
				continue
			}
			a.Sup.Depart(flow)
			leaving++
			departing++
		}
	}
	// Open capacity excludes members the Supervisor will bring back:
	// this epoch's crashes are still live here (not counted departing),
	// and earlier casualties awaiting drain or backoff hold their slot
	// through the reservation count. Counting either as open would let
	// arrivals plus restarts push the population past MaxLive.
	occupied := (live - departing) + a.Sup.PendingRestarts()
	for open := a.Cfg.MaxLive - occupied; open > 0; open-- {
		if a.src.Float64() < a.Cfg.ArriveProb {
			a.Sup.Admit()
		}
	}
	a.Epochs++
	a.timer.Arm(a.Cfg.Epoch)
}
