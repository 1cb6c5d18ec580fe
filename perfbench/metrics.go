package main

import "strconv"

// metricDef is one reported metric. The catalog is the single list the
// result line is built from; BENCHMARK.json and README.md follow it (a test
// checks both).
type metricDef struct {
	name string
	unit string
	// endToEnd metrics are printed by untraced runs, the rest by traced runs.
	endToEnd bool
	// zeroOn names the workloads where the metric is zero by construction,
	// and why.
	zeroOn map[string]string
	// zeroElse says why the metric can read zero on the other workloads.
	zeroElse string
}

const (
	noServe     = "no serve layer in this workload"
	noWire      = "in-process data plane: the wire transport does no work"
	serveStages = "JobStatus does not expose per-stage walls of served jobs"
	alwaysOn    = "the service traces every job in both modes, so there is no untraced baseline"
)

func iterOnly(reason string) map[string]string {
	return map[string]string{"serve-mix": reason}
}

func serveOnly() map[string]string {
	return map[string]string{"gnmf": noServe, "pagerank-wire": noServe}
}

// stageCount is how many engine.stage_wall_s.<n> entries are reported.
const stageCount = 6

var catalog = func() []metricDef {
	c := []metricDef{
		{name: "setup_s", unit: "s", endToEnd: true},
		{name: "latency_p50_s", unit: "s", endToEnd: true},
		{name: "latency_p90_s", unit: "s", endToEnd: true},
		{name: "model_s", unit: "s", endToEnd: true},
		{name: "comm_bytes", unit: "B", endToEnd: true},
		{name: "peak_rss_mb", unit: "MB", endToEnd: true},

		{name: "fail_ratio", unit: "1"},
		{name: "workload.gen_s", unit: "s"},
		{name: "engine.bind_s", unit: "s"},
		{name: "engine.first_run_s", unit: "s"},
		{name: "rewrite.s", unit: "s"},
		{name: "core.plan_s", unit: "s"},
		{name: "engine.plan_cache_hit_ratio", unit: "1"},
	}
	for i := 1; i <= stageCount; i++ {
		c = append(c, metricDef{name: "engine.stage_wall_s." + strconv.Itoa(i), unit: "s", zeroOn: iterOnly(serveStages),
			zeroElse: "the plan has fewer stages"})
	}
	c = append(c, metricDef{name: "engine.run_overhead_s", unit: "s", zeroOn: iterOnly(serveStages)})
	for _, k := range opKinds {
		c = append(c, metricDef{name: "engine.op_self_s." + k, unit: "s", zeroElse: "no operator of this kind in the plan"})
	}
	c = append(c,
		metricDef{name: "dist.comm_events", unit: "count"},
		metricDef{name: "dist.broadcasts", unit: "count"},
		metricDef{name: "dist.shuffles", unit: "count"},
		metricDef{name: "dist.model_compute_s", unit: "s"},
		metricDef{name: "dist.model_network_s", unit: "s"},
		metricDef{name: "transport.wire_bytes", unit: "B", zeroOn: map[string]string{"gnmf": noWire, "serve-mix": noWire}},
		metricDef{name: "transport.wire_frames", unit: "count", zeroOn: map[string]string{"gnmf": noWire, "serve-mix": noWire}},
		metricDef{name: "transport.wire_per_comm", unit: "1", zeroOn: map[string]string{"gnmf": noWire, "serve-mix": noWire}},
		metricDef{name: "sched.queue_wait_s", unit: "s"},
		metricDef{name: "sched.compute_s", unit: "s"},
		metricDef{name: "sched.wait_per_compute", unit: "1"},
		metricDef{name: "matrix.mul_count", unit: "count"},
		metricDef{name: "matrix.mul_flops", unit: "flop"},
		metricDef{name: "matrix.mul_gflops_p50", unit: "GFLOP/s"},
		metricDef{name: "matrix.strategy_count.classical", unit: "count"},
		metricDef{name: "matrix.strategy_count.strassen", unit: "count", zeroElse: "the planner picked no Strassen multiply"},
		metricDef{name: "serve.submit_p50_s", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "serve.submit_p90_s", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "serve.queue_wait_p50_s", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "serve.queue_wait_p90_s", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "serve.run_p50_s.pagerank", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "serve.run_p50_s.gram", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "serve.run_p50_s.blend", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "serve.rejected_ratio", unit: "1", zeroOn: serveOnly()},
		metricDef{name: "serve.job_cache_hit_ratio", unit: "1", zeroOn: serveOnly()},
		metricDef{name: "serve.plan_cache_hit_ratio", unit: "1", zeroOn: serveOnly()},
		metricDef{name: "loadgen.late_p90_s", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "loadgen.late_max_s", unit: "s", zeroOn: serveOnly()},
		metricDef{name: "runtime.alloc_mb", unit: "MB"},
		metricDef{name: "runtime.heap_peak_mb", unit: "MB"},
		metricDef{name: "runtime.gc_pause_s", unit: "s"},
		metricDef{name: "runtime.goroutines_peak", unit: "count"},
		metricDef{name: "obs.trace_overhead", unit: "1", zeroOn: iterOnly(alwaysOn)},
	)
	return c
}()

// lookupMetric returns the catalog entry of a metric.
func lookupMetric(name string) (metricDef, bool) {
	for _, d := range catalog {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
