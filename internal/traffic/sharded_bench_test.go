package traffic

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkParallelTraffic measures the domain-parallel engine end to end:
// 8 racks in a full mesh, each its own shard, driven by as many executors
// as GOMAXPROCS allows (`make bench` records it at `-cpu=1,2` in
// BENCH_parallel.json — results are bit-identical across the sweep, only
// wall clock moves). ns/op reads as per generated request,
// like BenchmarkTrafficEngine, so the two are directly comparable: the gap
// is the conservative-synchronization overhead, the ratio across -cpu
// values is the speedup.
func BenchmarkParallelTraffic(b *testing.B) {
	b.ReportAllocs()
	spec := Spec{Tenants: []Tenant{{
		Name: "bench", Clients: 1_000_000, Workload: SeqWrite,
		Arrival:      Arrival{Kind: Poisson, Rate: 4e-3}, // 4000 req/s aggregate
		RequestBytes: 1 << 20, IOBytes: 1 << 20,
		MaxInflight: 256,
	}}}
	const racks = 8
	window := time.Second // ~4000 requests per run, ~500 per rack
	runs := 0
	var generated uint64
	b.ResetTimer()
	for generated < uint64(b.N) {
		g, rks := buildShardedRig(0, racks, 2, 1e12, 500*time.Microsecond)
		rep := RunSharded(g, rks, ShardedConfig{
			Config:         Config{Spec: spec, Duration: window, Seed: uint64(runs + 1)},
			RemoteFraction: 0.25,
		})
		g.Shutdown()
		generated += rep.Tenants[0].Offered
		runs++
	}
	b.StopTimer()
	b.ReportMetric(float64(generated)/float64(runs), "req/run")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
}
