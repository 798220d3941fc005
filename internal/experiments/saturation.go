package experiments

import (
	"fmt"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/stats"
	"storagesim/internal/traffic"
)

// Multi-tenant saturation studies: the open-loop traffic engine drives a
// deployment with a mixed tenant population at increasing offered load.
// Unlike the closed-loop IOR sweeps — which always deliver whatever the
// system can absorb — an open-loop engine keeps offering work the system
// cannot serve, so delivered throughput flattens while tail latency turns
// the hockey-stick corner, and admission control starts shedding.

// RunTrafficWithFaults builds the machine+fs testbed, arms the fault
// schedule, and runs the traffic spec against it — the entry point for
// cmd/trafficbench. Tenant mounts are minted per tenant×node with
// tenant-qualified names, so shared deployments (VAST, GPFS, Lustre) give
// every tenant its own client stack into the common servers, while
// node-local deployments (NVMe, UnifyFS) give each tenant a private
// allocation — the burst-buffer-per-job model.
func RunTrafficWithFaults(machine string, fs FS, nodes int, cfg traffic.Config, sched faults.Schedule) (traffic.Report, []faults.Applied, error) {
	if err := cfg.Validate(); err != nil {
		return traffic.Report{}, nil, err
	}
	tb, err := buildTestbed(machine, fs, nodes, nil)
	if err != nil {
		return traffic.Report{}, nil, err
	}
	inj, err := tb.inject(string(fs), tb.sys, sched)
	if err != nil {
		return traffic.Report{}, nil, err
	}
	rep := traffic.Run(tb.env, tb.fab, nodes, tb.tenantMount, cfg)
	return rep, inj.Applied(), nil
}

// RunTraffic is RunTrafficWithFaults with an empty schedule.
func RunTraffic(machine string, fs FS, nodes int, cfg traffic.Config) (traffic.Report, error) {
	rep, _, err := RunTrafficWithFaults(machine, fs, nodes, cfg, faults.Schedule{})
	return rep, err
}

// SaturationTenants is the canonical four-tenant, one-million-client mix
// the saturation studies and cmd/trafficbench's built-in spec use: a
// checkpoint writer, an analytics scanner, a bursty ML random reader and a
// diurnal metadata tenant.
func SaturationTenants() traffic.Spec {
	return traffic.Spec{Tenants: []traffic.Tenant{
		{
			Name: "ckpt", Clients: 250_000, Workload: traffic.SeqWrite,
			Arrival:      traffic.Arrival{Kind: traffic.Poisson, Rate: 2e-4},
			RequestBytes: 4 << 20, IOBytes: 1 << 20,
			MaxInflight: 64, SLOP99: 2 * time.Second,
		},
		{
			Name: "scan", Clients: 250_000, Workload: traffic.SeqRead,
			Arrival:      traffic.Arrival{Kind: traffic.DeterministicRate, Rate: 2e-4},
			RequestBytes: 8 << 20, IOBytes: 1 << 20,
			MaxInflight: 32, SLOP99: 4 * time.Second,
		},
		{
			Name: "ml", Clients: 400_000, Workload: traffic.RandRead,
			Arrival: traffic.Arrival{
				Kind: traffic.OnOff, Rate: 2.5e-4,
				OnMean: 200 * time.Millisecond, OffMean: 600 * time.Millisecond, Burst: 4,
			},
			RequestBytes: 1 << 20, IOBytes: 128 << 10,
			MaxInflight: 128, SLOP99: time.Second,
		},
		{
			Name: "meta", Clients: 100_000, Workload: traffic.Metadata,
			Arrival: traffic.Arrival{
				Kind: traffic.Diurnal, Rate: 1e-3,
				Period: 2 * time.Second, Amplitude: 0.8,
			},
			MaxInflight: 256, SLOP99: 100 * time.Millisecond,
		},
	}}
}

// saturationLoads returns the offered-load multipliers of the sweep.
func saturationLoads(quick bool) []float64 {
	if quick {
		return []float64{1, 4, 16, 32}
	}
	return []float64{0.5, 1, 2, 4, 8, 16, 32}
}

// SaturationSweep sweeps offered load over the shared deployments and
// reports delivered goodput and aggregate p99 latency — the open-loop
// hockey stick. Both panels share the load-multiplier X axis.
func SaturationSweep(opts Options) ([]Panel, error) {
	opts = opts.withDefaults()
	goodput := Panel{
		ID:     "saturation-goodput",
		Title:  "Delivered goodput vs offered load (4 tenants, 1M clients)",
		XLabel: "load x",
		YLabel: "GB/s",
	}
	tail := Panel{
		ID:     "saturation-p99",
		Title:  "Aggregate p99 latency vs offered load (4 tenants, 1M clients)",
		XLabel: "load x",
		YLabel: "p99 ms",
	}
	type deployment struct {
		name    string
		machine string
		fs      FS
		nodes   int
	}
	deps := []deployment{
		{"vast/Wombat", "Wombat", VAST, 4},
		{"lustre/Ruby", "Ruby", Lustre, 4},
	}
	window := 2 * time.Second
	loads := saturationLoads(opts.Quick)
	points, err := runPoints(len(deps)*len(loads), func(i int) ([]traffic.TenantReport, error) {
		d := deps[i/len(loads)]
		return runSaturationPoint(d.machine, d.fs, d.nodes, traffic.Config{
			Spec:      SaturationTenants(),
			Duration:  window,
			Seed:      opts.Seed,
			LoadScale: loads[i%len(loads)],
		}, opts)
	})
	if err != nil {
		return nil, err
	}
	for di, d := range deps {
		gp := stats.Series{Name: d.name}
		tl := stats.Series{Name: d.name}
		for li, load := range loads {
			tenants := points[di*len(loads)+li]
			var delivered float64
			merged := stats.NewSketch(0)
			for _, tr := range tenants {
				delivered += tr.DeliveredBytes
				merged.Merge(tr.Sketch)
			}
			p99 := merged.Quantile(99) // seconds; NaN only if nothing completed
			gp.Points = append(gp.Points, stats.Point{X: load, Y: delivered / window.Seconds() / 1e9})
			gp.Err = append(gp.Err, 0)
			tl.Points = append(tl.Points, stats.Point{X: load, Y: p99 * 1e3})
			tl.Err = append(tl.Err, 0)
		}
		goodput.Series = append(goodput.Series, gp)
		tail.Series = append(tail.Series, tl)
	}
	note := fmt.Sprintf("open-loop window %v; seed %#x; load x scales every tenant's arrival rate", window, opts.Seed)
	if opts.Racks > 1 {
		note += fmt.Sprintf("; sharded over %d racks (remote fraction %g)", opts.Racks, opts.RemoteFraction)
	}
	goodput.Notes = append(goodput.Notes, note,
		"goodput counts tagged fabric bytes delivered inside the window, including partial requests")
	tail.Notes = append(tail.Notes, note,
		"p99 over completed requests of all tenants (latency sketch, 1% relative error)")
	return []Panel{goodput, tail}, nil
}
