package traffic

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
)

// fakeClient is a minimal fsapi.Client for engine tests: every stream
// crosses one shared pipe (so tenants contend and tagging is observable)
// and metadata ops cost a fixed latency. It offers fsapi.Starter, as the
// VAST mounts do, so plain requests run without a process; processClient
// hides that.
type fakeClient struct {
	env   *sim.Env
	fab   *sim.Fabric
	path  []*sim.Pipe
	tag   string
	opLat sim.Duration
}

func (c *fakeClient) FSName() string        { return "fake" }
func (c *fakeClient) NodeName() string      { return "node" }
func (c *fakeClient) SetFlowTag(tag string) { c.tag = tag }

func (c *fakeClient) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	p.SetFlowTag(c.tag)
	c.fab.Transfer(p, c.path, float64(total), 0)
}

func (c *fakeClient) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	p.SetFlowTag(c.tag)
	c.fab.Transfer(p, c.path, float64(total), 0)
}

func (c *fakeClient) Open(p *sim.Proc, path string, truncate bool) fsapi.File {
	p.SetFlowTag(c.tag)
	p.Sleep(c.opLat)
	return fakeFile{}
}

func (c *fakeClient) Remove(p *sim.Proc, path string) { p.Sleep(c.opLat) }
func (c *fakeClient) DropCaches()                     {}

// StartStreamWrite implements fsapi.Starter: StreamWrite without a process.
func (c *fakeClient) StartStreamWrite(path string, a fsapi.Access, ioSize, total int64, done func()) bool {
	c.fab.TransferThen(0, c.path, float64(total), 0, c.env.InternTag(c.tag), done)
	return true
}

// StartStreamRead implements fsapi.Starter: StreamRead without a process.
func (c *fakeClient) StartStreamRead(path string, a fsapi.Access, ioSize, total int64, done func()) bool {
	c.fab.TransferThen(0, c.path, float64(total), 0, c.env.InternTag(c.tag), done)
	return true
}

// StartMeta implements fsapi.Starter: Open and Close without a process.
func (c *fakeClient) StartMeta(path string, done func()) bool {
	c.env.InternTag(c.tag)
	if c.opLat > 0 {
		c.env.After(c.opLat, done)
	} else {
		done()
	}
	return true
}

// processClient hides a mount's fsapi.Starter, so the engine serves every
// plain request with a process, as on a backend without one. It forwards
// the flow tag.
type processClient struct{ fsapi.Client }

func (c processClient) SetFlowTag(tag string) {
	if tg, ok := c.Client.(fsapi.FlowTagger); ok {
		tg.SetFlowTag(tag)
	}
}

// processMounts wraps every mount mount mints in a processClient.
func processMounts(mount func(string, int) fsapi.Client) func(string, int) fsapi.Client {
	return func(tenant string, node int) fsapi.Client { return processClient{mount(tenant, node)} }
}

type fakeFile struct{}

func (fakeFile) Path() string                      { return "" }
func (fakeFile) Size() int64                       { return 0 }
func (fakeFile) WriteAt(p *sim.Proc, off, n int64) {}
func (fakeFile) ReadAt(p *sim.Proc, off, n int64)  {}
func (fakeFile) Fsync(p *sim.Proc)                 {}
func (fakeFile) Close(p *sim.Proc)                 {}

// fakeRig builds an env, a fabric with one shared pipe of the given
// bandwidth, and a mount function minting tagged fake clients.
func fakeRig(bw float64) (*sim.Env, *sim.Fabric, func(string, int) fsapi.Client) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	link := fab.NewPipe("link", bw, 10*time.Microsecond)
	mount := func(tenant string, node int) fsapi.Client {
		return &fakeClient{env: env, fab: fab, path: []*sim.Pipe{link}, opLat: 200 * time.Microsecond}
	}
	return env, fab, mount
}

func twoTenantSpec() Spec {
	return Spec{Tenants: []Tenant{
		{
			Name: "writer", Clients: 100_000, Workload: SeqWrite,
			Arrival:      Arrival{Kind: Poisson, Rate: 1e-3}, // 100 req/s aggregate
			RequestBytes: 1 << 20, IOBytes: 1 << 20,
			MaxInflight: 64, SLOP99: 500 * time.Millisecond,
		},
		{
			Name: "md", Clients: 50_000, Workload: Metadata,
			Arrival:     Arrival{Kind: DeterministicRate, Rate: 2e-3}, // 100 req/s
			MaxInflight: 32, SLOP99: time.Millisecond,
		},
	}}
}

// TestEngineBasics: both tenants generate, complete, and report sane
// latency percentiles and byte attribution.
func TestEngineBasics(t *testing.T) {
	env, fab, mount := fakeRig(1e9) // 1 GB/s: 100 MB/s offered, uncongested
	rep := Run(env, fab, 2, mount, Config{
		Spec: twoTenantSpec(), Duration: 2 * time.Second, Seed: 1, KeepLatencies: true,
	})
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant count %d", len(rep.Tenants))
	}
	wr, md := rep.Tenants[0], rep.Tenants[1]
	// ~200 arrivals each over 2s; Poisson fluctuates, rate is exact.
	if wr.Offered < 120 || wr.Offered > 280 {
		t.Fatalf("writer offered %d, want ~200", wr.Offered)
	}
	if md.Offered != 200 {
		t.Fatalf("metadata offered %d, want exactly 200 (deterministic rate)", md.Offered)
	}
	for _, tr := range rep.Tenants {
		if tr.Completed == 0 || tr.Completed+tr.Shed+uint64(tr.InFlightEnd) != tr.Offered {
			t.Fatalf("%s: offered %d != completed %d + shed %d + inflight %d",
				tr.Name, tr.Offered, tr.Completed, tr.Shed, tr.InFlightEnd)
		}
		if tr.P50 <= 0 || tr.P99 < tr.P50 {
			t.Fatalf("%s: p50 %v p99 %v", tr.Name, tr.P50, tr.P99)
		}
	}
	// Byte attribution: the writer moved ~1 MiB per completed request (plus
	// partial in-flight progress); metadata moved nothing.
	if wr.DeliveredBytes < float64(wr.Completed)*float64(1<<20)*0.9 {
		t.Fatalf("writer delivered %.0f bytes for %d requests", wr.DeliveredBytes, wr.Completed)
	}
	if md.DeliveredBytes != 0 {
		t.Fatalf("metadata tenant delivered %.0f bytes", md.DeliveredBytes)
	}
	// SLO attainment: uncongested writer must be near 1; the metadata
	// tenant's 1ms target is well above its 200µs op cost, so exactly 1.
	if wr.SLOAttainment < 0.99 {
		t.Fatalf("writer SLO attainment %v", wr.SLOAttainment)
	}
	if md.SLOAttainment != 1 {
		t.Fatalf("metadata SLO attainment %v", md.SLOAttainment)
	}
	// The sketch tracks the exact oracle within its bound on kept latencies.
	for _, p := range []float64{50, 95, 99} {
		exact := stats.Percentile(wr.Latencies, p)
		est := wr.Sketch.Quantile(p)
		if math.Abs(est-exact)/exact > 0.02 {
			t.Fatalf("writer p%g: sketch %v vs exact %v", p, est, exact)
		}
	}
}

// TestReportChecksConservation: the report builder refuses books that do
// not balance — an offered request that neither completed, was shed nor is
// in flight, or a shed without exactly one cause. Either is an engine bug.
func TestReportChecksConservation(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   tenantState
	}{
		{"lost request", tenantState{offered: 3, complete: 1, inflight: 1}},
		{"shed without cause", tenantState{offered: 2, complete: 1, shed: 1}},
		{"cause without shed", tenantState{offered: 1, complete: 1, deadlineMiss: 1}},
	} {
		st := tc.st
		st.spec, st.sketch = &Tenant{Name: "t"}, stats.NewSketch(0)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unbalanced books did not panic", tc.name)
				}
			}()
			tenantReport(&st, nil)
		}()
	}
	balanced := tenantState{spec: &Tenant{Name: "t"}, sketch: stats.NewSketch(0),
		offered: 4, complete: 1, inflight: 1, shed: 2, shedBreaker: 1, deadlineMiss: 1}
	if tr := tenantReport(&balanced, nil); tr.Offered != 4 || tr.Shed != 2 {
		t.Fatalf("balanced books misreported: %+v", tr)
	}
}

// TestEngineDeterminism: two identical runs must produce identical
// reports, including every kept latency; a different seed must not.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) Report {
		env, fab, mount := fakeRig(2e8) // congested: contention in play
		return Run(env, fab, 2, mount, Config{
			Spec: twoTenantSpec(), Duration: time.Second, Seed: seed, KeepLatencies: true,
		})
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(reportKey(a), reportKey(b)) {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", reportKey(a), reportKey(b))
	}
	if !reflect.DeepEqual(a.Tenants[0].Latencies, b.Tenants[0].Latencies) {
		t.Fatal("latency streams diverged between identical runs")
	}
	c := run(8)
	if reflect.DeepEqual(reportKey(a), reportKey(c)) {
		t.Fatal("different seeds produced the identical report")
	}
}

// reportKey projects a report onto its comparable scalars.
func reportKey(r Report) []TenantReport {
	out := make([]TenantReport, len(r.Tenants))
	for i, tr := range r.Tenants {
		tr.Sketch = nil
		tr.Latencies = nil
		out[i] = tr
	}
	return out
}

// TestEngineAdmissionControl: a starved link with a tiny in-flight cap
// must shed, and the books must balance.
func TestEngineAdmissionControl(t *testing.T) {
	env, fab, mount := fakeRig(1e6) // 1 MB/s against 100 MB/s offered
	spec := Spec{Tenants: []Tenant{{
		Name: "w", Clients: 100_000, Workload: SeqWrite,
		Arrival:      Arrival{Kind: Poisson, Rate: 1e-3},
		RequestBytes: 1 << 20, IOBytes: 1 << 20,
		MaxInflight: 4,
	}}}
	rep := Run(env, fab, 1, mount, Config{Spec: spec, Duration: 2 * time.Second, Seed: 3})
	tr := rep.Tenants[0]
	if tr.Shed == 0 {
		t.Fatal("starved tenant shed nothing")
	}
	if tr.InFlightEnd > 4 {
		t.Fatalf("in-flight %d exceeded cap 4", tr.InFlightEnd)
	}
	if tr.Completed+tr.Shed+uint64(tr.InFlightEnd) != tr.Offered {
		t.Fatalf("books don't balance: %+v", tr)
	}
	// Uncapped tenant on the same starved link: nothing is shed, requests
	// pile up in flight instead (pure open loop).
	env2, fab2, mount2 := fakeRig(1e6)
	spec.Tenants[0].MaxInflight = 0
	rep2 := Run(env2, fab2, 1, mount2, Config{Spec: spec, Duration: 2 * time.Second, Seed: 3})
	tr2 := rep2.Tenants[0]
	if tr2.Shed != 0 {
		t.Fatalf("uncapped tenant shed %d", tr2.Shed)
	}
	if tr2.InFlightEnd <= 4 {
		t.Fatalf("uncapped starved tenant should pile up in flight, got %d", tr2.InFlightEnd)
	}
}

// TestEngineOpenLoopIsOpen: halving service bandwidth must not change the
// offered arrival count — generation is independent of completion.
func TestEngineOpenLoopIsOpen(t *testing.T) {
	offered := func(bw float64) uint64 {
		env, fab, mount := fakeRig(bw)
		spec := twoTenantSpec()
		spec.Tenants[0].MaxInflight = 0
		rep := Run(env, fab, 2, mount, Config{Spec: spec, Duration: time.Second, Seed: 11})
		return rep.Tenants[0].Offered
	}
	if a, b := offered(1e9), offered(1e7); a != b {
		t.Fatalf("offered load depends on service rate: %d vs %d", a, b)
	}
}

// TestEngineLoadScale: doubling LoadScale doubles deterministic offered
// counts exactly.
func TestEngineLoadScale(t *testing.T) {
	count := func(scale float64) uint64 {
		env, fab, mount := fakeRig(1e9)
		spec := Spec{Tenants: []Tenant{{
			Name: "md", Clients: 1000, Workload: Metadata,
			Arrival: Arrival{Kind: DeterministicRate, Rate: 0.1},
		}}}
		rep := Run(env, fab, 1, mount, Config{Spec: spec, Duration: time.Second, Seed: 1, LoadScale: scale})
		return rep.Tenants[0].Offered
	}
	if c1, c2 := count(1), count(2); c2 != 2*c1 {
		t.Fatalf("load 2x offered %d, want %d", c2, 2*c1)
	}
}

// TestMillionClientsBounded: a one-million-client population must run
// through a handful of generator processes — OS goroutine count stays
// bounded by tenants×nodes plus in-flight requests plus the kernel's
// worker pool, never by the client population.
func TestMillionClientsBounded(t *testing.T) {
	env, fab, mount := fakeRig(1e9)
	spec := Spec{Tenants: []Tenant{
		{
			Name: "a", Clients: 600_000, Workload: SeqWrite,
			Arrival:      Arrival{Kind: Poisson, Rate: 5e-4}, // 300 req/s
			RequestBytes: 1 << 20, IOBytes: 1 << 20, MaxInflight: 64,
		},
		{
			Name: "b", Clients: 400_000, Workload: Metadata,
			Arrival:     Arrival{Kind: Poisson, Rate: 1e-3}, // 400 req/s
			MaxInflight: 64,
		},
	}}
	baseline := runtime.NumGoroutine()
	peak := 0
	env.Go("probe", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			p.Sleep(10 * time.Millisecond)
		}
	})
	rep := Run(env, fab, 4, mount, Config{Spec: spec, Duration: time.Second, Seed: 5})
	if got := rep.Tenants[0].Offered + rep.Tenants[1].Offered; got < 500 {
		t.Fatalf("only %d arrivals from 1M clients", got)
	}
	// Generous bound: 2 tenants × 4 nodes generators + 128 in-flight caps +
	// the kernel's 64 pooled workers + slack is still far under 1000.
	if peak-baseline > 1000 {
		t.Fatalf("goroutine peak %d over baseline %d — per-client processes?", peak, baseline)
	}
}
