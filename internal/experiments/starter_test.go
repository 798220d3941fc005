package experiments

import (
	"testing"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
	"storagesim/internal/traffic"
	"storagesim/internal/vast"
)

// processClient hides a mount's fsapi.Starter, so the traffic engine
// serves every plain request with a process. It forwards the flow tag.
type processClient struct{ fsapi.Client }

func (c processClient) SetFlowTag(tag string) {
	if tg, ok := c.Client.(fsapi.FlowTagger); ok {
		tg.SetFlowTag(tag)
	}
}

// mounts returns mount, or mount behind processClient when hide is set.
func mounts(mount func(string, int) fsapi.Client, hide bool) func(string, int) fsapi.Client {
	if !hide {
		return mount
	}
	return func(tenant string, node int) fsapi.Client { return processClient{mount(tenant, node)} }
}

// starterRun is one traffic run of the starter differential: its report
// digest and the kernel's filed events and process starts, summed over
// its Envs.
type starterRun struct {
	digest         string
	events, starts int
}

func (r *starterRun) count(env *sim.Env) {
	r.events += env.Events()
	r.starts += env.Starts()
}

func reportDigest(rep traffic.Report) string {
	return traffic.ShardedReport{
		Duration: rep.Duration,
		Racks:    []traffic.RackReport{{Name: "run", Tenants: rep.Tenants}},
	}.Digest()
}

// starterConfig is the differential's traffic: the four saturation
// tenants (write, read, random read and metadata) on two Wombat nodes.
func starterConfig() traffic.Config {
	return traffic.Config{Spec: SaturationTenants(), Duration: time.Second, Seed: 11, LoadScale: 8}
}

// runVASTTraffic runs starterConfig on a two-node Wombat VAST testbed
// built with mutate, under the fault schedule sched.
func runVASTTraffic(t *testing.T, hide bool, sched string, mutate func(*vast.Config)) starterRun {
	t.Helper()
	tb, err := buildTestbed("Wombat", VAST, 2, mutate)
	if err != nil {
		t.Fatal(err)
	}
	if sched != "" {
		s, err := faults.ParseSchedule([]byte(sched))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.inject(string(VAST), tb.sys, s); err != nil {
			t.Fatal(err)
		}
	}
	rep := traffic.Run(tb.env, tb.fab, 2, mounts(tb.tenantMount, hide), starterConfig())
	r := starterRun{digest: reportDigest(rep)}
	r.count(tb.env)
	return r
}

// TestStarterKeepsSchedule runs the same VAST traffic with the mounts'
// fsapi.Starter exposed and hidden. Plain requests then run without a
// process, or with one, and the reports and the filed events must be the
// same, including where an attempt declines and its process serves the
// request: while mounts are stale after a CNode failover, while writers
// throttle behind a tiny SCM staging tier, on forwarded requests of a
// sharded run, and in a trace replay.
func TestStarterKeepsSchedule(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, hide bool) starterRun
		// fallback requires the exposed run to start processes: some
		// attempts declined. Without it the exposed run must start none.
		fallback bool
	}{
		{name: "no faults", run: func(t *testing.T, hide bool) starterRun {
			return runVASTTraffic(t, hide, "", nil)
		}},
		{name: "CNode failover", fallback: true, run: func(t *testing.T, hide bool) starterRun {
			return runVASTTraffic(t, hide, `{"events": [
				{"at": "200ms", "kind": "server-fail", "index": 0},
				{"at": "400ms", "kind": "server-fail", "index": 5},
				{"at": "600ms", "kind": "server-recover", "index": 0}]}`, nil)
		}},
		{name: "staging throttle", fallback: true, run: func(t *testing.T, hide bool) starterRun {
			return runVASTTraffic(t, hide, "", func(c *vast.Config) { c.SCMStagingBytes = 4 << 20 })
		}},
		{name: "sharded remote", run: func(t *testing.T, hide bool) starterRun {
			g, racks, _, err := buildShardedTestbeds("Wombat", VAST, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Shutdown()
			for i := range racks {
				racks[i].Mount = mounts(racks[i].Mount, hide)
			}
			rep := traffic.RunSharded(g, racks, traffic.ShardedConfig{Config: starterConfig(), RemoteFraction: 0.25})
			r := starterRun{digest: rep.Digest()}
			for _, rk := range racks {
				r.count(rk.Shard.Env())
			}
			return r
		}},
		{name: "trace replay", run: func(t *testing.T, hide bool) starterRun {
			cfg := starterConfig()
			cfg.Duration = 300 * time.Millisecond
			_, events, err := RecordTraffic("Wombat", VAST, 2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := map[trace.Op]bool{}
			for _, ev := range events {
				ops[ev.Op] = true
			}
			if len(ops) != 4 {
				t.Fatalf("the recording holds %d kinds of op, want all 4", len(ops))
			}
			tr, err := trace.Normalize(events)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := buildTestbed("Wombat", VAST, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep := traffic.ReplayTrace(tb.env, tb.fab, 2, mounts(tb.tenantMount, hide), traffic.TraceConfig{Trace: tr})
			r := starterRun{digest: reportDigest(rep)}
			r.count(tb.env)
			return r
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exposed, hidden := tc.run(t, false), tc.run(t, true)
			t.Logf("%d events; %d process starts with Starter, %d without", exposed.events, exposed.starts, hidden.starts)
			if exposed.digest != hidden.digest {
				t.Fatalf("reports differ\nwith Starter:    %s\nwithout Starter: %s", exposed.digest, hidden.digest)
			}
			if exposed.events != hidden.events {
				t.Fatalf("%d events filed with Starter, %d without", exposed.events, hidden.events)
			}
			if exposed.starts >= hidden.starts {
				t.Fatalf("%d process starts with Starter, %d without: no request ran without a process",
					exposed.starts, hidden.starts)
			}
			if tc.fallback != (exposed.starts > 0) {
				t.Fatalf("%d process starts with Starter (%d without); fallback expected: %v",
					exposed.starts, hidden.starts, tc.fallback)
			}
		})
	}
}

// TestVASTTrafficAllocatesNothing: a steady plain traffic run on VAST
// allocates nothing per request. Two runs of the same testbed and seed,
// one four times as long, differ in their allocations by far less than
// one per extra request: the requests run without processes on pooled
// records, and what the longer run allocates more is amortized growth
// (0.013 per extra request when written). One allocation per metadata
// request, a sixth of the mix, would read about 0.17.
func TestVASTTrafficAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement over whole runs")
	}
	run := func(d time.Duration) (allocs float64, requests uint64, starts int) {
		allocs = testing.AllocsPerRun(1, func() {
			tb, err := buildTestbed("Wombat", VAST, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := starterConfig()
			cfg.Duration = d
			rep := traffic.Run(tb.env, tb.fab, 2, tb.tenantMount, cfg)
			requests, starts = 0, tb.env.Starts()
			for _, tr := range rep.Tenants {
				requests += tr.Offered
			}
		})
		return allocs, requests, starts
	}
	shortAllocs, shortReqs, _ := run(time.Second)
	longAllocs, longReqs, starts := run(4 * time.Second)
	if starts != 0 || longReqs < shortReqs+4000 {
		t.Fatalf("%d process starts, %d and %d requests: the rig must serve every request without a process",
			starts, shortReqs, longReqs)
	}
	per := (longAllocs - shortAllocs) / float64(longReqs-shortReqs)
	t.Logf("%.0f and %.0f allocations for %d and %d requests: %.4f per extra request",
		shortAllocs, longAllocs, shortReqs, longReqs, per)
	if per > 0.05 {
		t.Errorf("%.4f allocations per request (%.0f more over %d more requests), budget 0.05",
			per, longAllocs-shortAllocs, longReqs-shortReqs)
	}
}
