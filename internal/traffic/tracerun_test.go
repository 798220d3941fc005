package traffic

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
)

// replayTrace builds a small two-tenant normalized trace: a writer issuing
// 1 MiB requests every 5ms and a metadata tenant opening every 2ms.
func replayFixture(t *testing.T) *trace.Trace {
	t.Helper()
	var events []trace.Event
	for i := 0; i < 20; i++ {
		events = append(events, trace.Event{
			At: sim.Time(i) * sim.Time(5*time.Millisecond), Tenant: "w", Op: trace.OpWrite,
			Bytes: 1 << 20, Rank: -1,
		})
	}
	for i := 0; i < 50; i++ {
		events = append(events, trace.Event{
			At: sim.Time(i) * sim.Time(2*time.Millisecond), Tenant: "m", Op: trace.OpMeta, Rank: -1,
		})
	}
	tr, err := trace.Normalize(events)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayTraceBasics: every recorded event is re-issued and completes,
// payload is attributed, and the makespan covers the stream.
func TestReplayTraceBasics(t *testing.T) {
	env, fab, mount := fakeRig(1e9)
	tr := replayFixture(t)
	rep := ReplayTrace(env, fab, 2, mount, TraceConfig{Trace: tr})
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant count %d", len(rep.Tenants))
	}
	byName := map[string]TenantReport{}
	for _, tn := range rep.Tenants {
		byName[tn.Name] = tn
	}
	w, m := byName["w"], byName["m"]
	if w.Offered != 20 || w.Completed != 20 || w.Shed != 0 || w.InFlightEnd != 0 {
		t.Fatalf("writer books: %+v", w)
	}
	if m.Completed != 50 {
		t.Fatalf("meta completed %d", m.Completed)
	}
	if w.PayloadBytes != 20*float64(1<<20) {
		t.Fatalf("writer payload %.0f", w.PayloadBytes)
	}
	if m.PayloadBytes != 0 {
		t.Fatalf("meta payload %.0f", m.PayloadBytes)
	}
	if w.P50 <= 0 || w.P99 < w.P50 {
		t.Fatalf("writer percentiles p50 %v p99 %v", w.P50, w.P99)
	}
	// The replay drains: the makespan is at least the last issue time.
	if rep.Duration < 98*time.Millisecond {
		t.Fatalf("makespan %v shorter than the recorded stream", rep.Duration)
	}
}

// TestReplayTraceDeterminism: identical replays must produce identical
// reports including every kept latency.
func TestReplayTraceDeterminism(t *testing.T) {
	run := func() Report {
		env, fab, mount := fakeRig(2e8)
		return ReplayTrace(env, fab, 2, mount, TraceConfig{Trace: replayFixture(t), KeepLatencies: true})
	}
	// reportKey, minus the SLO attainment: no replayed tenant declares an
	// SLO, and NaN breaks DeepEqual by design.
	key := func(r Report) []TenantReport {
		out := reportKey(r)
		for i := range out {
			out[i].SLOAttainment = 0
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(key(a), key(b)) {
		t.Fatalf("identical replays diverged:\n%+v\n%+v", reportKey(a), reportKey(b))
	}
	for i := range a.Tenants {
		if !reflect.DeepEqual(a.Tenants[i].Latencies, b.Tenants[i].Latencies) {
			t.Fatalf("%s: latency streams diverged", a.Tenants[i].Name)
		}
	}
}

// TestReplayNodeAssignment: ranked events pin to node rank%nodes; rankless
// events rotate round-robin over the nodes within their tenant.
func TestReplayNodeAssignment(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 6; i++ {
		events = append(events, trace.Event{
			At: sim.Time(i) * sim.Time(time.Millisecond), Tenant: "ranked", Op: trace.OpRead,
			Bytes: 1024, Rank: 5, // 5 % 2 == node 1, always
		})
		events = append(events, trace.Event{
			At: sim.Time(i) * sim.Time(time.Millisecond), Tenant: "free", Op: trace.OpRead,
			Bytes: 1024, Rank: -1,
		})
	}
	tr, err := trace.Normalize(events)
	if err != nil {
		t.Fatal(err)
	}
	env, fab, base := fakeRig(1e9)
	type key struct {
		tenant string
		node   int
	}
	mounted := map[key]bool{}
	mount := func(tenant string, node int) fsapi.Client {
		mounted[key{tenant, node}] = true
		return base(tenant, node)
	}
	ReplayTrace(env, fab, 2, mount, TraceConfig{Trace: tr})
	var got []key
	for k := range mounted {
		got = append(got, k)
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].tenant != got[j].tenant {
			return got[i].tenant < got[j].tenant
		}
		return got[i].node < got[j].node
	})
	want := []key{{"free", 0}, {"free", 1}, {"ranked", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mounted shards %v, want %v", got, want)
	}
}

// TestReplayAdmission: with a cap, overlapping recorded requests on a
// starved link shed exactly like the stochastic engine; without one the
// whole recorded stream is admitted.
func TestReplayAdmission(t *testing.T) {
	burst := func(maxInflight int) TenantReport {
		var events []trace.Event
		for i := 0; i < 30; i++ {
			events = append(events, trace.Event{
				At: sim.Time(i) * sim.Time(10*time.Microsecond), Tenant: "b", Op: trace.OpWrite,
				Bytes: 1 << 20, Rank: -1,
			})
		}
		tr, err := trace.Normalize(events)
		if err != nil {
			t.Fatal(err)
		}
		env, fab, mount := fakeRig(1e6) // 1 MB/s against a 30 MiB burst
		rep := ReplayTrace(env, fab, 1, mount, TraceConfig{Trace: tr, MaxInflight: maxInflight})
		return rep.Tenants[0]
	}
	capped := burst(4)
	if capped.Shed == 0 {
		t.Fatal("capped burst shed nothing")
	}
	if capped.ShedAdmission != capped.Shed {
		t.Fatalf("cap sheds not attributed to admission: shed %d, admission %d", capped.Shed, capped.ShedAdmission)
	}
	if capped.Completed+capped.Shed != capped.Offered || capped.InFlightEnd != 0 {
		t.Fatalf("books don't balance after drain: %+v", capped)
	}
	if open := burst(0); open.Shed != 0 || open.Completed != 30 {
		t.Fatalf("uncapped replay shed: %+v", open)
	}
}

// ioCaptureClient records the ioSize of every stream call.
type ioCaptureClient struct {
	*fakeClient
	ios *[]int64
}

func (c *ioCaptureClient) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	*c.ios = append(*c.ios, ioSize)
	c.fakeClient.StreamWrite(p, path, a, ioSize, total)
}

func (c *ioCaptureClient) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	*c.ios = append(*c.ios, ioSize)
	c.fakeClient.StreamRead(p, path, a, ioSize, total)
}

func (c *ioCaptureClient) StartStreamWrite(path string, a fsapi.Access, ioSize, total int64, done func()) bool {
	*c.ios = append(*c.ios, ioSize)
	return c.fakeClient.StartStreamWrite(path, a, ioSize, total, done)
}

func (c *ioCaptureClient) StartStreamRead(path string, a fsapi.Access, ioSize, total int64, done func()) bool {
	*c.ios = append(*c.ios, ioSize)
	return c.fakeClient.StartStreamRead(path, a, ioSize, total, done)
}

// TestReplayOpSize: a recorded Event.IO overrides the replay's default op
// size; without one the default applies, clamped to the request payload.
func TestReplayOpSize(t *testing.T) {
	events := []trace.Event{
		{At: 0, Tenant: "a", Op: trace.OpRead, Bytes: 1 << 20, IO: 4 << 10, Rank: -1},
		{At: sim.Time(time.Millisecond), Tenant: "a", Op: trace.OpRead, Bytes: 1 << 20, Rank: -1},
		{At: sim.Time(2 * time.Millisecond), Tenant: "a", Op: trace.OpRead, Bytes: 16 << 10, Rank: -1},
	}
	tr, err := trace.Normalize(events)
	if err != nil {
		t.Fatal(err)
	}
	env, fab, base := fakeRig(1e9)
	var ios []int64
	mount := func(tenant string, node int) fsapi.Client {
		return &ioCaptureClient{fakeClient: base(tenant, node).(*fakeClient), ios: &ios}
	}
	ReplayTrace(env, fab, 1, mount, TraceConfig{Trace: tr, IOBytes: 64 << 10})
	sort.Slice(ios, func(i, j int) bool { return ios[i] < ios[j] })
	want := []int64{4 << 10, 16 << 10, 64 << 10} // recorded IO, payload clamp, default
	if !reflect.DeepEqual(ios, want) {
		t.Fatalf("op sizes %v, want %v", ios, want)
	}
}

// TestReplayObserver: the observer re-records the replay with simulated
// latencies — re-normalizing its output must yield a replayable trace of
// the same shape (the self-audit loop).
func TestReplayObserver(t *testing.T) {
	env, fab, mount := fakeRig(1e9)
	tr := replayFixture(t)
	var rerec []trace.Event
	ReplayTrace(env, fab, 2, mount, TraceConfig{
		Trace:    tr,
		Observer: func(ev trace.Event) { rerec = append(rerec, ev) },
	})
	if len(rerec) != len(tr.Events) {
		t.Fatalf("observer saw %d events, trace has %d", len(rerec), len(tr.Events))
	}
	for _, ev := range rerec {
		if ev.Latency <= 0 {
			t.Fatalf("observer event without simulated latency: %+v", ev)
		}
		if ev.File == "" || ev.Rank < 0 {
			t.Fatalf("observer event without placement: %+v", ev)
		}
	}
	tr2, err := trace.Normalize(rerec)
	if err != nil {
		t.Fatalf("re-recorded stream does not normalize: %v", err)
	}
	if !tr2.HasLatencies() {
		t.Fatal("re-recorded stream lost latencies")
	}
}

// TestSpecFromTrace: the fitted spec reflects each tenant's majority op,
// mean payload, realized rate and arrival regularity.
func TestSpecFromTrace(t *testing.T) {
	var events []trace.Event
	// "paced": 101 rand-reads of 1 MiB exactly every 10ms — CoV 0.
	for i := 0; i < 101; i++ {
		events = append(events, trace.Event{
			At: sim.Time(i) * sim.Time(10*time.Millisecond), Tenant: "paced", Op: trace.OpRandRead,
			Bytes: 1 << 20, Rank: -1,
		})
	}
	// "bursty": 4 MiB writes with alternating 1ms/19ms gaps — CoV ~0.9.
	at := sim.Time(0)
	for i := 0; i < 100; i++ {
		events = append(events, trace.Event{At: at, Tenant: "bursty", Op: trace.OpWrite, Bytes: 4 << 20, Rank: -1})
		if i%2 == 0 {
			at = at.Add(time.Millisecond)
		} else {
			at = at.Add(19 * time.Millisecond)
		}
	}
	tr, err := trace.Normalize(events)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Tenant{}
	for _, tn := range spec.Tenants {
		byName[tn.Name] = tn
	}
	paced, bursty := byName["paced"], byName["bursty"]
	if paced.Workload != RandRead || paced.Arrival.Kind != DeterministicRate {
		t.Fatalf("paced fit: %+v", paced)
	}
	if paced.RequestBytes != 1<<20 || paced.IOBytes != 1<<20 {
		t.Fatalf("paced sizes: %+v", paced)
	}
	span := tr.Duration().Seconds()
	if rate := paced.Arrival.Rate; rate < 100/span*0.99 || rate > 101/span*1.01 {
		t.Fatalf("paced rate %.2f over span %.3fs", rate, span)
	}
	if bursty.Workload != SeqWrite || bursty.Arrival.Kind != Poisson {
		t.Fatalf("bursty fit: %+v", bursty)
	}
	if bursty.RequestBytes != 4<<20 || bursty.IOBytes != 1<<20 {
		t.Fatalf("bursty sizes (io must clamp at 1 MiB): %+v", bursty)
	}

	if _, err := SpecFromTrace(&trace.Trace{}); err == nil {
		t.Fatal("empty trace fitted")
	}
	zero, err := trace.Normalize([]trace.Event{{At: 0, Tenant: "z", Op: trace.OpMeta, Rank: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpecFromTrace(zero); err == nil {
		t.Fatal("zero-span trace fitted")
	}
}

// TestMajorityOpTies: equal counts resolve in the fixed read, rand-read,
// write, meta order so fits are deterministic.
func TestMajorityOpTies(t *testing.T) {
	events := []trace.Event{
		{Op: trace.OpWrite}, {Op: trace.OpRead},
	}
	if got := majorityOp(events); got != trace.OpRead {
		t.Fatalf("tie broke to %v", got)
	}
	events = append(events, trace.Event{Op: trace.OpWrite})
	if got := majorityOp(events); got != trace.OpWrite {
		t.Fatalf("majority %v", got)
	}
}
