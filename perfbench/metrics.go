package main

// The benchmark's metric definitions; BENCHMARK.json at the repository
// root declares the same names, units and directions (a test keeps the
// two in step).

import "time"

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	value  func(*round) float64
}

// endToEndMetrics are what a user of the system sees, per workload: the
// median over a run's rounds. Elapsed times are net
// of hypervisor steal — scaled by the share of the machine's CPU time
// the guest actually got — so that a shared host's neighbours do not
// read as the code's cost; on a dedicated machine they are plain
// elapsed times.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower", func(r *round) float64 { return r.net(r.Wall) }},
	{"setup_s", "s", "lower", func(r *round) float64 { return r.net(r.Setup) }},
	{"ops_per_s", "1/s", "higher", func(r *round) float64 { return float64(r.Ops) / r.net(r.Wall) }},
	{"cpu_s", "s", "lower", func(r *round) float64 { return r.CPU.Seconds() }},
	{"peak_heap_mb", "MB", "lower", func(r *round) float64 { return float64(r.PeakHeap) / 1e6 }},
}

// perLayerMetrics are the traced run's rows. The CPU fold rows are
// generated from foldLayers.
var perLayerMetrics = append(foldMetrics(), []metricDef{
	{name: "cpu.sampled_s", unit: "s", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "bytes_per_instance", unit: "B", better: "lower"},
	{name: "leaked_goroutines", unit: "count", better: "lower"},
	{name: "machine.steal_share", unit: "ratio", better: "lower"},
	{name: "sim.idle_share", unit: "ratio", better: "lower"},

	{name: "config.compile_s", unit: "s", better: "lower"},
	{name: "provision_s", unit: "s", better: "lower"},
	{name: "deploy_s", unit: "s", better: "lower"},
	{name: "run_s", unit: "s", better: "lower"},
	{name: "teardown_s", unit: "s", better: "lower"},
	{name: "chord.lookups", unit: "count", better: "higher"},
	{name: "chord.failed_lookups", unit: "count", better: "lower"},
	{name: "failed_share", unit: "ratio", better: "lower"},
	{name: "rpc.calls", unit: "count", better: "lower"},
	{name: "rpc.errors", unit: "count", better: "lower"},
	{name: "rpc.timeouts", unit: "count", better: "lower"},
	{name: "rpc.calls_per_lookup", unit: "count", better: "lower"},
	{name: "metrics.frames", unit: "count", better: "lower"},
	{name: "metrics.bytes", unit: "B", better: "lower"},
	{name: "simnet.bytes", unit: "B", better: "lower"},
	{name: "ctl.frames", unit: "count", better: "lower"},
	{name: "ctl.deploy_frames", unit: "count", better: "lower"},
	{name: "faults.firings", unit: "count", better: "lower"},

	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_p99_ms", unit: "ms", better: "lower"},
	{name: "op_samples", unit: "count", better: "higher"},
	{name: "host.submit_ms", unit: "ms", better: "lower"},
	{name: "host.place_ms", unit: "ms", better: "lower"},
	{name: "host.kill_ms", unit: "ms", better: "lower"},
	{name: "host.release_ms", unit: "ms", better: "lower"},
}...)

// foldMetrics are the CPU fold's rows: self and cum shares per layer,
// plus the self share no named layer claims.
func foldMetrics() []metricDef {
	var ds []metricDef
	for _, l := range foldLayers {
		ds = append(ds,
			metricDef{name: l + ".cpu_self", unit: "%", better: "lower"},
			metricDef{name: l + ".cpu_cum", unit: "%", better: "lower"})
	}
	return append(ds, metricDef{name: otherLayer + ".cpu_self", unit: "%", better: "lower"})
}

// net is an elapsed time of r net of hypervisor steal, in seconds.
func (r *round) net(d time.Duration) float64 { return d.Seconds() * (1 - r.Steal) }
