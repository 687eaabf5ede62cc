package main

// spec names one metric the benchmark prints: the same names, units and
// directions BENCHMARK.json declares (bench_test.go holds them equal).
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off. Bound is the share of the
// parent's median by which a metric may worsen before a change is a
// regression. The host-time bounds are as wide as a bound may be: on
// the shared 2-core host this was calibrated on, ten runs at the
// reference host speed (ref.go) spread over 2-11 % of the median, and
// the acceptance driver's host is noisier, so a tighter bound rejects
// changes that did nothing. bench diff on interleaved runs resolves
// finer differences. The five virtual-time metrics at the end are functions
// of the configuration alone; their bounds allow for nothing but a
// change of behaviour.
var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s_per_vsec", "s/s", "lower", 0.25},
	{"cpu_s_per_vsec", "s/s", "lower", 0.25},
	{"decide_p50_us", "us", "lower", 0.25},
	{"decide_p99_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"alloc_mb_per_vsec", "MiB/s", "lower", 0.02},
	{"utility_per_vsec", "bit/s", "higher", 0.005},
	{"goodput_frac", "frac", "higher", 0.005},
	{"delay_mean_vms", "vms", "lower", 0.005},
	{"drop_frac", "frac", "lower", 0.005},
	{"jain", "index", "higher", 0.005},
}

// perLayer come from the traced run.
var perLayer = []spec{
	{Name: "belief.update_calls_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "belief.update_busy_s_per_vsec", Unit: "s/s", Better: "lower"},
	{Name: "belief.update_p50_us", Unit: "us", Better: "lower"},
	{Name: "belief.update_p99_us", Unit: "us", Better: "lower"},
	{Name: "belief.support_mean", Unit: "count", Better: "lower"},
	{Name: "belief.support_growth_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "belief.branches_per_update", Unit: "count", Better: "lower"},
	{Name: "belief.kept_frac", Unit: "frac", Better: "higher"},
	{Name: "belief.relaxed_per_kupdate", Unit: "count", Better: "lower"},
	{Name: "belief.reseeded_total", Unit: "count", Better: "lower"},
	{Name: "planner.decide_calls_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "planner.decide_busy_s_per_vsec", Unit: "s/s", Better: "lower"},
	{Name: "planner.decisions_per_wake", Unit: "count", Better: "lower"},
	{Name: "planner.cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "planner.cache_entries_end", Unit: "count", Better: "lower"},
	{Name: "planner.fingerprint_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.probe_calls_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "policy.probe_busy_s_per_vsec", Unit: "s/s", Better: "lower"},
	{Name: "policy.probe_p50_us", Unit: "us", Better: "lower"},
	{Name: "policy.hit_frac", Unit: "frac", Better: "higher"},
	{Name: "policy.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.compile_s", Unit: "s", Better: "lower"},
	{Name: "policy.write_open_verify_s", Unit: "s", Better: "lower"},
	{Name: "policy.table_entries", Unit: "count", Better: "lower"},
	{Name: "fleet.build_s", Unit: "s", Better: "lower"},
	{Name: "model.run_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "model.advance_enum_ns_per_branch", Unit: "ns", Better: "lower"},
	{Name: "model.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "model.queue_len_mean", Unit: "count", Better: "lower"},
	{Name: "utility.meter_add_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "sim.pending_mean", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "elements.offered_pkts_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "elements.dropped_pkts_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "elements.buffer_fill_frac_end", Unit: "frac", Better: "lower"},
	{Name: "fleet.wakes_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "fleet.acks_per_wake", Unit: "count", Better: "higher"},
	{Name: "fleet.other_s_per_vsec", Unit: "s/s", Better: "lower"},
	{Name: "shard.window_grid_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "shard.coord_cpu_s_per_vsec", Unit: "s/s", Better: "lower"},
	{Name: "shard.k2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "shard.parallel_eff", Unit: "frac", Better: "higher"},
	{Name: "shard.digest_match", Unit: "count", Better: "higher"},
	{Name: "rollout.w2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "rollout.w2_cpu_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.mallocs_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "runtime.gc_cycles_per_vsec", Unit: "1/s", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.attributed_frac", Unit: "frac", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}
