package main

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
// "op" is the workload's unit of work: one regeneration on regen-cold and
// rehydrate, one routed GET /v1/eval (timed from when it was due) on
// serve-route.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports, on every workload. A
// layer the workload does not exercise reads 0; the run asserts that
// where the workload predicts it.
var perLayer = []metricDef{
	{"widen.transform_ms", "ms"},
	{"widen.ops_out", "count"},
	{"ddg.analysis_ms", "ms"},
	{"sched.modulo_schedule_us_p50", "us"},
	{"sched.modulo_schedule_us_p99", "us"},
	{"sched.small_us_p50", "us"},
	{"sched.large_us_p50", "us"},
	{"sched.ii_over_mii", "ratio"},
	{"lifetimes.compute_ms", "ms"},
	{"regalloc.minregs_ms", "ms"},
	{"regalloc.regs_over_maxlive", "ratio"},
	{"spill.schedule_ms", "ms"},
	{"spill.small_ms", "ms"},
	{"spill.large_ms", "ms"},
	{"spill.rounds", "count"},
	{"spill.ops", "count"},
	{"spill.failed", "count"},
	{"exact.solve_ms", "ms"},
	{"exact.nodes", "count"},
	{"exact.exhausted", "count"},
	{"perfcost.suite_cell_ms", "ms"},
	{"perfcost.suite_computes", "count"},
	{"perfcost.widen_computes", "count"},
	{"perfcost.peak_computes", "count"},
	{"perfcost.disk_hits", "count"},
	{"perfcost.disk_misses", "count"},
	{"perfcost.evaluate_us", "us"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.writes", "count"},
	{"resultcache.bytes_read", "bytes"},
	{"resultcache.bytes_written", "bytes"},
	{"resultcache.corrupt", "count"},
	{"experiments.fig2_ms", "ms"},
	{"experiments.fig3_ms", "ms"},
	{"experiments.fig8_ms", "ms"},
	{"experiments.optgap_ms", "ms"},
	{"textplot.render_us", "us"},
	{"sweep.export_csv_us", "us"},
	{"sweep.marshal_json_us", "us"},
	{"serve.eval_direct_p50_ms", "ms"},
	{"serve.manager_hits", "count"},
	{"serve.manager_misses", "count"},
	{"serve.manager_builds", "count"},
	{"serve.manager_evictions", "count"},
	{"fleet.router_hop_ms", "ms"},
	{"fleet.detect_ms", "ms"},
	{"fleet.retries", "count"},
	{"fleet.hedges", "count"},
	{"fleet.failovers", "count"},
	{"fleet.rehashes", "count"},
	{"fleet.prewarms_cold", "count"},
	{"fleet.unavailable", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"eval_p99_ms", "ms"},
	{"failover_p99_ms", "ms"},
	{"eval_rate_at_slo_rps", "1/s"},
	{"sweep_cells_per_s", "1/s"},
	{"failed_frac", "ratio"},
	{"trace.overhead_op_p50_ms", "ms"},
}

// reportOnly are printed under the names the workloads' users know them
// by but carried in the result line as op_p50_ms / op_alloc_mb.
var reportOnly = []metricDef{
	{"regen_s", "s"},
	{"regen_alloc_mb", "MB"},
	{"eval_p50_ms", "ms"},
	{"loadgen.samples", "count"},
	{"trace.spans", "count"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, list := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range list {
			m[d.name] = d.unit
		}
	}
	return m
}()
