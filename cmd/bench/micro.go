package main

import (
	"time"

	"modelcc/internal/model"
	"modelcc/internal/planner"
	"modelcc/internal/policy"
	"modelcc/internal/sim"
	"modelcc/internal/utility"
)

// The micro-timings run public functions on states copied out of the
// workload, after the traced window, so a number like
// model.run_ns_per_event is the cost of State.Run on this workload's
// queues and not on a synthetic one.

// microBudget is how long each micro-timing loops.
const microBudget = 40 * time.Millisecond

// sink keeps the compiler from discarding a timed call.
var sink uint64

// timeLoop calls fn until the budget is spent and returns the mean
// nanoseconds per unit, fn reporting how many units one call did.
func timeLoop(fn func() int) float64 {
	var units int
	t0 := time.Now()
	for time.Since(t0) < microBudget {
		for i := 0; i < 8; i++ {
			units += fn()
		}
	}
	if units == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(units)
}

// microModel times planner.Fingerprint on the sampled supports and
// State.Run / AdvanceEnum / CloneInto / Meter.Add on their states.
func microModel(samples []sample, plan planner.Config, interWake, tq time.Duration, wq float64) map[string]float64 {
	out := map[string]float64{}
	var states []model.State
	var nows []time.Duration
	for _, s := range samples {
		// The heaviest few hypotheses are the ones the planner rolls
		// out; a support of thousands is sampled, not exhausted.
		step := (len(s.sup) + 31) / 32
		for i := 0; i < len(s.sup); i += step {
			states = append(states, s.sup[i].S)
			nows = append(nows, s.now)
		}
	}
	if len(states) == 0 {
		return out
	}
	if wq <= 0 {
		wq = 1e-6
	}
	if plan.Horizon <= 0 || plan.MaxDelay <= 0 {
		d := planner.DefaultConfig()
		if plan.Horizon <= 0 {
			plan.Horizon = d.Horizon
		}
		if plan.MaxDelay <= 0 {
			plan.MaxDelay = d.MaxDelay
		}
	}
	horizon := plan.MaxDelay + plan.Horizon

	i := 0
	out["planner.fingerprint_ns"] = timeLoop(func() int {
		s := samples[i%len(samples)]
		i++
		fp, _ := planner.Fingerprint(s.sup, nil, s.now, tq, wq)
		sink += fp
		return 1
	})

	var queued int
	for j := range states {
		queued += states[j].QLen()
	}
	out["model.queue_len_mean"] = float64(queued) / float64(len(states))

	var scratch model.State
	i = 0
	out["model.clone_ns"] = timeLoop(func() int {
		states[i%len(states)].CloneInto(&scratch)
		i++
		return 1
	})

	var evs []model.Event
	i = 0
	out["model.run_ns_per_event"] = timeLoop(func() int {
		k := i % len(states)
		i++
		states[k].CloneInto(&scratch)
		evs = evs[:0]
		scratch.Run(nows[k]+horizon, nil, &evs)
		return len(evs)
	})

	if interWake <= 0 {
		interWake = time.Second
	}
	i = 0
	out["model.advance_enum_ns_per_branch"] = timeLoop(func() int {
		k := i % len(states)
		i++
		brs := model.AdvanceEnum(states[k], states[k].Now+interWake, nil)
		return len(brs)
	})

	// One recorded delivery sequence: the first sampled state rolled to
	// the planning horizon.
	states[0].CloneInto(&scratch)
	evs = evs[:0]
	scratch.Run(nows[0]+horizon, nil, &evs)
	if len(evs) > 0 {
		var meter utility.Meter
		out["utility.meter_add_ns"] = timeLoop(func() int {
			meter.Reset(plan.Util, nows[0], scratch.P.LossProb)
			sink += uint64(meter.Add(evs))
			return len(evs)
		})
	}
	return out
}

// microSim times one Schedule+Step on a loop holding depth pending
// events: the kernel's cost per event at the workload's queue depth.
func microSim(depth int) float64 {
	loop := sim.New(1)
	noop := func() {}
	for i := 0; i < depth; i++ {
		loop.Schedule(time.Duration(i+1)*time.Millisecond, noop)
	}
	return timeLoop(func() int {
		loop.Schedule(loop.Now()+time.Duration(depth+1)*time.Millisecond, noop)
		loop.Step()
		return 1
	})
}

// microLookup times Table.Lookup over the table's own keys.
func microLookup(t *policy.Table) float64 {
	n := t.Len()
	if n == 0 {
		return 0
	}
	keys := make([]policy.Record, 0, 4096)
	for i := 0; i < n && len(keys) < cap(keys); i += (n + cap(keys) - 1) / cap(keys) {
		keys = append(keys, t.Record(i))
	}
	i := 0
	return timeLoop(func() int {
		k := keys[i%len(keys)]
		i++
		r, ok := t.Lookup(k.FP, k.Verify)
		if ok {
			sink += r.FP
		}
		return 1
	})
}
