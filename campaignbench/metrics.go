package main

// metricSpec names one reported metric and its unit. BENCHMARK.json
// lists the same names; "vs" and "vms" are virtual seconds and
// milliseconds of the simulated clock, every other time is host time.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"access_per_s", "1/s"},
	{"access_ms_p50", "ms"},
	{"access_ms_p90", "ms"},
	{"alloc_mb", "MiB"},
	{"max_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

var layerMetrics = []metricSpec{
	{"testbed.world_ms", "ms"},
	{"testbed.deploy_ms", "ms"},
	{"testbed.rig_ms", "ms"},
	{"tor.preheat_ms_p50", "ms"},
	{"tor.preheat_ms_p90", "ms"},
	{"tor.preheats", "count"},
	{"tor.preheat_vs_p50", "vs"},
	{"tor.cells_queued", "count"},
	{"tor.cells_flushed", "count"},
	{"tor.cells_dropped", "count"},
	{"tor.host_ns_per_cell", "ns"},
	{"tor.sched_passes", "count"},
	{"tor.sched_delay_ms", "vms"},
	{"tor.rebuilds", "count"},
	{"tor.stream_failures", "count"},
	{"netem.segments", "count"},
	{"netem.bytes_delivered", "B"},
	{"netem.host_ns_per_segment", "ns"},
	{"netem.dials", "count"},
	{"netem.dials_refused", "count"},
	{"netem.conns_opened", "count"},
	{"netem.goroutines_max", "count"},
	{"netem.virtual_s", "vs"},
	{"netem.host_ns_per_vsec", "ns/vs"},
	{"fetch.access_vs_p50", "vs"},
	{"fetch.bytes_got", "B"},
	{"runtime.mallocs_per_access", "count"},
	{"runtime.alloc_bytes_per_segment", "B"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
}

// perLayerMetrics is layerMetrics plus two metrics per access method.
func perLayerMetrics() []metricSpec {
	out := append([]metricSpec(nil), layerMetrics...)
	for _, m := range catalogMethods() {
		out = append(out,
			metricSpec{"pt." + m + ".access_ms_p50", "ms"},
			metricSpec{"pt." + m + ".segments_per_access", "count"})
	}
	return out
}
