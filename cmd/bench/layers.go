package main

import (
	"slices"
	"time"

	"modelcc/internal/planner"
)

// layerInput is what a traced window hands to layerMetrics.
type layerInput struct {
	recs    []*recorder
	cost    hostCost
	out     outcome
	members int // senders sharing out.VSec (1 when VSec is pooled over solo runs)
	samples []sample
	plan    planner.Config
	// tq and wq are the fingerprint quanta in use (zero: exact).
	tq time.Duration
	wq float64

	supStart, supEnd, supWindow float64
	overhead                    float64 // traced wall ÷ untraced wall − 1
	fillEnd                     float64
	guardLive                   int64
	cacheHits, cacheMisses      int
	cacheEntries                int
	fired                       uint64
	pendingMean                 float64
	buildS                      float64
}

// layerMetrics turns a traced window into the per-layer table. Every
// name in perLayer is set, zero where the workload has no such layer.
func layerMetrics(in layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	vsec := in.out.VSec
	var updates, updateNS, branches, kept, relaxed, reseeded, probes, probeHits, probeNS int64
	var updateLat, probeLat []int64
	var decideNS int64
	for _, r := range in.recs {
		updates += r.updates
		updateNS += r.updateNS
		branches += r.branches
		kept += r.kept
		relaxed += r.relaxed
		reseeded += r.reseeded
		probes += r.probes
		probeHits += r.probeHits
		probeNS += r.probeNS
		updateLat = append(updateLat, r.updateLat...)
		probeLat = append(probeLat, r.probeLat...)
		for _, s := range r.spans {
			if s.kind == spanDecide {
				decideNS += s.end - s.start
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	slices.Sort(updateLat)
	m["belief.update_calls_per_vsec"] = float64(updates) / vsec
	m["belief.update_busy_s_per_vsec"] = float64(updateNS) / 1e9 / vsec
	m["belief.update_p50_us"] = us(percentile(updateLat, 0.50))
	m["belief.update_p99_us"] = us(percentile(updateLat, 0.99))
	m["belief.support_mean"] = ratio(float64(kept), float64(updates))
	m["belief.support_growth_per_vsec"] = ratio(in.supEnd-in.supStart, in.supWindow)
	m["belief.branches_per_update"] = ratio(float64(branches), float64(updates))
	m["belief.kept_frac"] = ratio(float64(kept), float64(branches))
	m["belief.relaxed_per_kupdate"] = 1000 * ratio(float64(relaxed), float64(updates))
	m["belief.reseeded_total"] = float64(reseeded)

	// A decision's self time excludes the table probe made inside it.
	planNS := decideNS - probeNS
	m["planner.decide_calls_per_vsec"] = float64(in.guardLive) / vsec
	m["planner.decide_busy_s_per_vsec"] = float64(planNS) / 1e9 / vsec
	m["planner.decisions_per_wake"] = ratio(float64(in.out.Decisions), float64(in.out.Wakes))
	m["planner.cache_hit_frac"] = ratio(float64(in.cacheHits), float64(in.cacheHits+in.cacheMisses))
	m["planner.cache_entries_end"] = float64(in.cacheEntries)

	slices.Sort(probeLat)
	m["policy.probe_calls_per_vsec"] = float64(probes) / vsec
	m["policy.probe_busy_s_per_vsec"] = float64(probeNS) / 1e9 / vsec
	m["policy.probe_p50_us"] = us(percentile(probeLat, 0.50))
	m["policy.hit_frac"] = ratio(float64(probeHits), float64(probes))
	m["fleet.build_s"] = in.buildS

	m["sim.events_per_vsec"] = float64(in.fired) / vsec
	m["sim.pending_mean"] = in.pendingMean
	if in.fired > 0 {
		m["sim.ns_per_event"] = microSim(int(in.pendingMean))
	}

	m["elements.offered_pkts_per_vsec"] = float64(in.out.Offered) / vsec
	m["elements.dropped_pkts_per_vsec"] = float64(in.out.Drops) / vsec
	m["elements.buffer_fill_frac_end"] = in.fillEnd

	attributed := float64(updateNS+planNS+probeNS) / 1e9
	m["fleet.wakes_per_vsec"] = float64(in.out.Wakes) / vsec
	m["fleet.acks_per_wake"] = ratio(float64(in.out.Acks), float64(in.out.Wakes))
	m["fleet.other_s_per_vsec"] = (in.cost.cpu - attributed) / vsec

	m["runtime.mallocs_per_vsec"] = float64(in.cost.mallocs) / vsec
	m["runtime.gc_cycles_per_vsec"] = float64(in.cost.gcCycles) / vsec
	m["runtime.gc_cpu_frac"] = ratio(in.cost.gcCPU, in.cost.cpu)

	m["trace.attributed_frac"] = ratio(attributed, in.cost.cpu)
	m["trace.overhead_frac"] = in.overhead

	interWake := time.Duration(ratio(vsec*float64(in.members), float64(in.out.Wakes)) * float64(time.Second))
	for k, v := range microModel(in.samples, in.plan, interWake, in.tq, in.wq) {
		m[k] = v
	}
	return m
}

// fleetLayers builds the per-layer table from a fleet workload's traced
// repeats; h is the last repeat's runtime.
func fleetLayers(rep *report, h *host, t *tally, buildS float64) map[string]float64 {
	last := t.last
	in := layerInput{
		recs: allRecorders(t.runs), cost: rep.cost, out: rep.pooled,
		samples: last.sampled, plan: h.plan,
		supStart: last.supStart, supEnd: last.supEnd, supWindow: last.out.VSec,
		overhead: overhead(rep.times.wall, t.untracedUnits), buildS: buildS,
	}
	in.fromWindows(t.runs, h)
	return layerMetrics(in)
}

// fromWindows fills the fields the windows' ledgers provide.
func (in *layerInput) fromWindows(runs []*windowRun, h *host) {
	last := runs[len(runs)-1]
	in.members = len(last.out.PerFlow)
	in.fillEnd = last.marks[last.last].fillFrac
	for _, w := range runs {
		in.guardLive += w.after.guards.live - w.before.guards.live
		in.cacheHits += w.after.cacheHits - w.before.cacheHits
		in.cacheMisses += w.after.cacheMisses - w.before.cacheMisses
		in.fired += w.after.fired - w.before.fired
	}
	for _, mk := range last.marks[:last.last+1] {
		in.pendingMean += float64(mk.pending) / float64(last.last+1)
	}
	if h.caches != nil {
		in.cacheEntries = h.caches.Len()
		in.tq, in.wq = h.caches.TimeQuantum(), h.caches.WeightQuantum()
	}
}
