package traffic

import (
	"testing"
	"time"

	"storagesim/internal/sim"
)

// shardedBenchSpec is BenchmarkShardedTraffic's tenant: 4000 req/s
// aggregate, ~4000 requests per 1 s run, ~500 per rack of eight.
func shardedBenchSpec() Spec {
	return Spec{Tenants: []Tenant{{
		Name: "bench", Clients: 1_000_000, Workload: SeqWrite,
		Arrival:      Arrival{Kind: Poisson, Rate: 4e-3},
		RequestBytes: 1 << 20, IOBytes: 1 << 20,
		MaxInflight: 256,
	}}}
}

// runShardedBench runs BenchmarkShardedTraffic's rig once — 8 racks in a
// full mesh, each its own shard, a quarter of the requests remote — and
// adds the kernel's counts, summed over the shards, to c.
func runShardedBench(seed uint64, c *kernelCounts) ShardedReport {
	g, rks := buildShardedRig(8, 2, 1e12, 500*time.Microsecond)
	defer g.Shutdown()
	rep := RunSharded(g, rks, ShardedConfig{
		Config:         Config{Spec: shardedBenchSpec(), Duration: time.Second, Seed: seed},
		RemoteFraction: 0.25,
	})
	for _, rk := range rks {
		c.add(rk.Shard.Env())
	}
	return rep
}

// BenchmarkShardedTraffic measures the sharded engine end to end on
// runShardedBench's rig. ns/op reads as per generated request, like
// BenchmarkTrafficEngine, so the two are directly comparable: the gap is
// the cost of the windows and cross-rack messages.
func BenchmarkShardedTraffic(b *testing.B) {
	b.ReportAllocs()
	runs := 0
	var generated uint64
	var counts kernelCounts
	b.ResetTimer()
	for generated < uint64(b.N) {
		rep := runShardedBench(uint64(runs+1), &counts)
		generated += rep.Tenants[0].Offered
		runs++
	}
	b.StopTimer()
	b.ReportMetric(float64(generated)/float64(runs), "req/run")
	counts.report(b)
}

// TestShardedSwitches pins the baton's hand-offs between goroutines in
// BenchmarkShardedTraffic's first run, summed over the shards. The window
// loop runs on whichever goroutine holds the baton, so the Run caller
// gets it back once, and every other switch goes to the goroutine of a
// resumed or started request process. The count is exact; the test fails
// if it rises.
func TestShardedSwitches(t *testing.T) {
	var c kernelCounts
	rep := runShardedBench(1, &c)
	if offered := rep.Tenants[0].Offered; offered != 4106 {
		t.Fatalf("the run offered %d requests, want 4106: the rig moved", offered)
	}
	const pin = 3637
	if c.switches > pin {
		t.Errorf("%d switches for %d starts and %d resumes, pinned at %d", c.switches, c.starts, c.resumes, pin)
	} else if c.switches < pin {
		t.Logf("%d switches, below the pin of %d: lower it", c.switches, pin)
	}
	if c.switches > c.starts+c.resumes+1 {
		t.Errorf("%d switches for %d starts and %d resumes: more than one went back to the Run caller", c.switches, c.starts, c.resumes)
	}
}

// kernelCounts sums the kernel's exact work counters over the Envs of a
// benchmark's runs and reports them per op. Like allocs/op they are
// deterministic for a fixed -benchtime=Nx, so benchjson -diff fails on
// any rise.
type kernelCounts struct{ starts, resumes, switches int }

func (c *kernelCounts) add(e *sim.Env) {
	c.starts += e.Starts()
	c.resumes += e.Resumes()
	c.switches += e.Switches()
}

func (c *kernelCounts) report(b *testing.B) {
	n := float64(b.N)
	b.ReportMetric(float64(c.starts)/n, "starts/op")
	b.ReportMetric(float64(c.resumes)/n, "resumes/op")
	b.ReportMetric(float64(c.switches)/n, "switches/op")
}
