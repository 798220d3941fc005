package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/stats"
	"storagesim/internal/traffic"
)

// trafficKey projects a traffic report onto comparable values: every
// scalar plus the full kept-latency streams, with the sketch pointers
// (always distinct across runs) replaced by their rendered quantiles.
func trafficKey(r traffic.Report) interface{} {
	type row struct {
		TR   traffic.TenantReport
		Lats []float64
		Q    [3]float64
	}
	rows := make([]row, len(r.Tenants))
	for i, tr := range r.Tenants {
		q := [3]float64{tr.Sketch.Quantile(50), tr.Sketch.Quantile(95), tr.Sketch.Quantile(99)}
		lats := tr.Latencies
		tr.Sketch, tr.Latencies = nil, nil
		rows[i] = row{TR: tr, Lats: lats, Q: q}
	}
	return rows
}

// TestTrafficMillionClients is the acceptance test: the one-million-client
// four-tenant mix runs over the full VAST and Lustre stacks via client
// aggregation, is byte-deterministic across two runs, and every tenant's
// latency sketch tracks the exact-sort oracle within 2% relative error at
// p50/p95/p99.
func TestTrafficMillionClients(t *testing.T) {
	spec := SaturationTenants()
	var clients int
	for _, tn := range spec.Tenants {
		clients += tn.Clients
	}
	if clients != 1_000_000 {
		t.Fatalf("canonical mix has %d clients, want 1M", clients)
	}
	deps := []struct {
		machine string
		fs      FS
	}{
		{"Wombat", VAST},
		{"Ruby", Lustre},
	}
	for _, d := range deps {
		cfg := traffic.Config{
			Spec:          spec,
			Duration:      2 * time.Second,
			Seed:          0x5eed,
			KeepLatencies: true,
		}
		rep1, err := RunTraffic(d.machine, d.fs, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep2, err := RunTraffic(d.machine, d.fs, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(trafficKey(rep1), trafficKey(rep2)) {
			t.Fatalf("%s/%s: identical runs diverged", d.machine, d.fs)
		}
		for _, tr := range rep1.Tenants {
			if tr.Completed == 0 {
				t.Fatalf("%s/%s tenant %s completed nothing", d.machine, d.fs, tr.Name)
			}
			if tr.Completed+tr.Shed+uint64(tr.InFlightEnd) != tr.Offered {
				t.Fatalf("%s/%s tenant %s books don't balance: %+v", d.machine, d.fs, tr.Name, tr)
			}
			for _, p := range []float64{50, 95, 99} {
				exact := stats.Percentile(tr.Latencies, p)
				est := tr.Sketch.Quantile(p)
				if math.Abs(est-exact)/exact > 0.02 {
					t.Fatalf("%s/%s tenant %s p%g: sketch %v vs exact %v (>2%%)",
						d.machine, d.fs, tr.Name, p, est, exact)
				}
			}
		}
	}
}

// TestTrafficFaultComposition: arming a server failure under the traffic
// engine must change the report (degraded service) while staying
// deterministic — the composition the chaos experiments rely on.
func TestTrafficFaultComposition(t *testing.T) {
	spec := SaturationTenants()
	// LoadScale 8 pushes the deployment past its knee so lost capacity is
	// visible in delivered bytes, not just in the tail.
	cfg := traffic.Config{Spec: spec, Duration: 2 * time.Second, Seed: 0x5eed, LoadScale: 8}
	sched := faults.Schedule{Events: []faults.Event{
		{At: 200 * time.Millisecond, Kind: faults.ServerFail, Index: 0},
		{At: 250 * time.Millisecond, Kind: faults.ServerFail, Index: 1},
	}}
	healthy, err := RunTraffic("Wombat", VAST, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hurt1, applied, err := RunTrafficWithFaults("Wombat", VAST, 4, cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 {
		t.Fatalf("applied %d fault events, want 2", len(applied))
	}
	hurt2, _, err := RunTrafficWithFaults("Wombat", VAST, 4, cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trafficKey(hurt1), trafficKey(hurt2)) {
		t.Fatal("faulted runs diverged")
	}
	if reflect.DeepEqual(trafficKey(healthy), trafficKey(hurt1)) {
		t.Fatal("server failures left the traffic report unchanged")
	}
	// Failing half the servers must cost delivered bytes on the data tenants.
	var okBytes, hurtBytes float64
	for i := range healthy.Tenants {
		okBytes += healthy.Tenants[i].DeliveredBytes
		hurtBytes += hurt1.Tenants[i].DeliveredBytes
	}
	if hurtBytes >= okBytes {
		t.Fatalf("degraded run delivered %.0f bytes >= healthy %.0f", hurtBytes, okBytes)
	}
}
