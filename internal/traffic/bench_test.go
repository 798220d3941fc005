package traffic

import (
	"testing"
	"time"

	"storagesim/internal/netsim"
	"storagesim/internal/resilience"
)

// BenchmarkTrafficEngine measures the end-to-end cost of one generated
// request through the open-loop engine: arrival draw, admission check,
// request process spawn, one fabric transfer, sketch update. The loop runs
// whole traffic windows (~4096 requests each) until b.N requests have been
// generated, so ns/op and allocs/op read as per generated request — the
// number that bounds how many logical clients a saturation sweep can
// afford to aggregate. starts/op, resumes/op and switches/op count the
// kernel's work exactly.
func BenchmarkTrafficEngine(b *testing.B) {
	b.ReportAllocs()
	spec := Spec{Tenants: []Tenant{{
		Name: "bench", Clients: 1_000_000, Workload: SeqWrite,
		Arrival:      Arrival{Kind: Poisson, Rate: 1e-3}, // 1000 req/s aggregate
		RequestBytes: 1 << 20, IOBytes: 1 << 20,
		MaxInflight: 256,
	}}}
	const requestsPerRun = 4096
	window := time.Duration(requestsPerRun) * time.Millisecond
	runs := 0
	var generated uint64
	var counts kernelCounts
	b.ResetTimer()
	for generated < uint64(b.N) {
		env, fab, mount := fakeRig(1e12)
		rep := Run(env, fab, 4, mount, Config{
			Spec: spec, Duration: window, Seed: uint64(runs + 1),
		})
		counts.add(env)
		generated += rep.Tenants[0].Offered
		runs++
	}
	b.StopTimer()
	b.ReportMetric(float64(generated)/float64(runs), "req/run")
	counts.report(b)
}

// armedSpec is BenchmarkTrafficEngine's tenant with the full policy stack
// armed: deadline, retry budget, hedging, breaker and brownout.
func armedSpec() Spec {
	return Spec{
		Brownout: resilience.Brownout{Capacity: 1024, Tiers: []float64{1.0, 0.5}},
		Tenants: []Tenant{{
			Name: "bench", Clients: 1_000_000, Workload: SeqWrite,
			Arrival:      Arrival{Kind: Poisson, Rate: 1e-3}, // 1000 req/s aggregate
			RequestBytes: 1 << 20, IOBytes: 1 << 20,
			MaxInflight: 256,
			Resilience: resilience.Policy{
				Deadline: time.Second,
				Retry:    netsim.RetryPolicy{Timeout: 10 * time.Millisecond, Multiplier: 2, MaxRetries: 2, Jitter: time.Millisecond},
				Hedge:    resilience.Hedge{Quantile: 0.99, MinSamples: 32},
				Breaker:  resilience.BreakerSpec{Failures: 10, Cooldown: 100 * time.Millisecond, Probes: 2, Successes: 3},
			},
		}},
	}
}

// BenchmarkResilienceOverhead is BenchmarkTrafficEngine with the full
// policy stack armed — deadline, retry budget, hedging, breaker, brownout
// — on an uncongested rig, so every request takes the resilient path and
// almost nothing fires: no deadline miss or retry, and only the ~2% of
// requests slower than the p99 hedge delay hedge. The delta against
// BenchmarkTrafficEngine is the pure bookkeeping cost of the layer per
// request (coordinator continuation, abort token, breaker check,
// hedge/deadline timers armed and cancelled).
func BenchmarkResilienceOverhead(b *testing.B) {
	b.ReportAllocs()
	spec := armedSpec()
	const requestsPerRun = 4096
	window := time.Duration(requestsPerRun) * time.Millisecond
	runs := 0
	var generated uint64
	var counts kernelCounts
	b.ResetTimer()
	for generated < uint64(b.N) {
		env, fab, mount := fakeRig(1e12)
		rep := Run(env, fab, 4, mount, Config{
			Spec: spec, Duration: window, Seed: uint64(runs + 1),
		})
		counts.add(env)
		generated += rep.Tenants[0].Offered
		runs++
	}
	b.StopTimer()
	b.ReportMetric(float64(generated)/float64(runs), "req/run")
	counts.report(b)
}
