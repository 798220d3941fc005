package traffic

import (
	"testing"
	"time"
)

// BenchmarkShardedTraffic measures the sharded engine end to end: 8 racks
// in a full mesh, each its own shard. ns/op reads as per generated
// request, like BenchmarkTrafficEngine, so the two are directly
// comparable: the gap is the cost of the windows and cross-rack messages.
func BenchmarkShardedTraffic(b *testing.B) {
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
		g, rks := buildShardedRig(racks, 2, 1e12, 500*time.Microsecond)
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
}
