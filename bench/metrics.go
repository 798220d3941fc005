package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics with their bounds; a test keeps the two in
// step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run: what a user of the
// simulator sees.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"sim_ops_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"alloc_kib_per_op", "KiB", "lower"},
	{"alloc_objects_per_op", "objects", "lower"},
}

// spanNames are the benchmark's spans around its calls into the layers.
var spanNames = []string{
	"cluster.new", "vast.new",
	"traffic.run", "traffic.run_sharded", "traffic.replay",
	"trace.parse", "trace.normalize", "fidelity.audit",
	"experiments.ior_figs", "experiments.dlio_figs",
	"experiments.traffic_figs", "experiments.whatif_fig",
}

// countDefs are the traced rep's modelled-work and boundary counts. A
// change that only speeds up the simulator leaves every one of them equal.
var countDefs = []metricDef{
	{"fsapi.open", "count", "lower"},
	{"fsapi.stream_read", "count", "lower"},
	{"fsapi.stream_write", "count", "lower"},
	{"fsapi.remove", "count", "lower"},
	{"fsapi.file_ops", "count", "lower"},
	{"fabric.pipe_gib", "GiB", "lower"},
	{"fabric.amplification", "ratio", "lower"},
	{"fabric.top_util", "ratio", "higher"},
	{"traffic.offered", "count", "higher"},
	{"traffic.completed", "count", "higher"},
	{"traffic.shed", "count", "lower"},
	{"traffic.deadline_miss", "count", "lower"},
	{"resilience.retries", "count", "lower"},
	{"resilience.hedges", "count", "lower"},
	{"resilience.hedge_win_ratio", "ratio", "higher"},
	{"trace.events", "count", "higher"},
	{"trace.input_mib", "MiB", "lower"},
	{"fidelity.in_band", "count", "higher"},
}

// perLayer are the metrics of a traced run. Span and CPU shares are
// percentages, so a layer a workload never enters reads 0 rather than a
// time that never moves.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range spanNames {
		out = append(out, metricDef{"span." + s + "_pct", "%", "lower"})
	}
	for _, l := range cpuLayers {
		out = append(out, metricDef{"cpu." + l + "_pct", "%", "lower"})
	}
	for _, c := range leafClasses {
		out = append(out, metricDef{"cpu.leaf." + c + "_pct", "%", "lower"})
	}
	out = append(out,
		metricDef{"cpu.profile_s", "s", "lower"},
		metricDef{"go.gc_cpu_s", "s", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.sched_wait_s", "s", "lower"},
	)
	out = append(out, countDefs...)
	return append(out, metricDef{"trace_overhead", "ratio", "lower"})
}

// stat is one metric of a run: the median over its samples, with the
// extremes.
type stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

func statOf(unit string, xs []float64) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], Samples: len(s)}
}

// median of sorted xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
