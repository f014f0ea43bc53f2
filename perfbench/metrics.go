package main

import "fmt"

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names; TestBenchmarkJSONMatches keeps the two equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every
// workload. The latency families are defined per workload in
// README.md: a trial is one simulated trial, a request is a set of
// trials a caller waits for together, a sweep is a whole pass.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"trials_per_s", "trials/s"},
	{"trial_ms_p90", "ms"},
	{"request_ms_p50", "ms"},
	{"request_ms_p90", "ms"},
	{"sweep_ms_p50", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every traced run prints
// all of them; a layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms"},
	{"core.build_ms", "ms"},
	{"baseline.build_ms", "ms"},
	{"system.run_ms.legacy", "ms"},
	{"system.run_ms.rtxen", "ms"},
	{"system.run_ms.bv", "ms"},
	{"system.run_ms.part", "ms"},
	{"system.run_ms.ioguard40", "ms"},
	{"system.run_ms.ioguard70", "ms"},
	{"metrics.fold_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"runtime.alloc_kb_per_trial", "kB"},
	{"runtime.gc_cycles", "count/ktrial"},
	{"runtime.gc_pause_ms", "ms/ktrial"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.batch_size_mean", "trials"},
	{"system.jobs_released", "count/pass"},
	{"system.jobs_completed", "count/pass"},
	{"system.jobs_unfinished", "count/pass"},
	{"system.sim_slots", "count/pass"},
	{"hypervisor.p_slots_used", "count/pass"},
	{"hypervisor.p_slots_idle", "count/pass"},
	{"hypervisor.r_slots_used", "count/pass"},
	{"hypervisor.reclaimed", "count/pass"},
	{"hypervisor.preemptions", "count/pass"},
	{"noc.injected", "count/pass"},
	{"noc.forwarded", "count/pass"},
	{"noc.delay_slots", "count/pass"},
	{"server.batches", "count"},
}

// finish checks that a workload reported exactly the metrics of its
// mode, filling per-layer metrics of layers it does not cross with 0.
func finish(out map[string]metric, traced bool) (map[string]metric, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.name] = d.unit
	}
	for n, m := range out {
		unit, ok := want[n]
		if !ok {
			return nil, fmt.Errorf("metric %q is not listed for this mode", n)
		}
		if m.Unit != unit {
			return nil, fmt.Errorf("metric %q has unit %q, want %q", n, m.Unit, unit)
		}
	}
	for _, d := range defs {
		if _, ok := out[d.name]; ok {
			continue
		}
		if !traced {
			return nil, fmt.Errorf("end-to-end metric %q missing", d.name)
		}
		out[d.name] = metric{0, d.unit}
	}
	return out, nil
}
