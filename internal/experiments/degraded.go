package experiments

import (
	"fmt"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/ior"
	"storagesim/internal/sim"
)

// Degraded-mode studies: what the paper's deployments deliver while
// servers are down. The fault-injection engine (internal/faults) delivers
// a schedule of timed events through the simulation event loop, so every
// degraded run with a fixed seed and schedule is byte-reproducible.

// RunIORWithFaults builds the machine+fs testbed, arms the fault schedule
// on it (the whole deployment registers under the fs name, so schedules
// may leave "target" empty), and runs one IOR configuration. It returns
// the result and the events actually delivered — the entry point for
// cmd/iorbench's -faults flag.
func RunIORWithFaults(machine string, fs FS, nodes int, cfg ior.Config, sched faults.Schedule) (ior.Result, []faults.Applied, error) {
	tb, err := buildTestbed(machine, fs, nodes, nil)
	if err != nil {
		return ior.Result{}, nil, err
	}
	inj, err := tb.inject(string(fs), tb.sys, sched)
	if err != nil {
		return ior.Result{}, nil, err
	}
	res, err := ior.Run(tb.env, tb.mounts, cfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	return res, inj.Applied(), nil
}

// serverFailures fails servers 0..n-1 at offset at, in index order.
func serverFailures(n int, at sim.Duration) faults.Schedule {
	var sched faults.Schedule
	for i := 0; i < n; i++ {
		sched.Events = append(sched.Events, faults.Event{At: at, Kind: faults.ServerFail, Index: i})
	}
	return sched
}

// DegradedSweep sweeps the fraction of failed servers and reports the
// delivered IOR write bandwidth for each deployment — the degraded-mode
// counterpart of the scalability figures. Servers fail 10 ms into the run
// (mid-stream, not before it), so each point carries a short healthy
// prefix exactly like an operational incident.
func DegradedSweep(opts Options) (Panel, error) {
	opts = opts.withDefaults()
	p := Panel{
		ID:     "degraded-sweep",
		Title:  "Degraded-mode IOR writes vs fraction of failed servers",
		XLabel: "failed",
		YLabel: "write GB/s",
		Notes: []string{
			"servers fail 10ms into the run; failed fraction rounds down to whole servers",
			fmt.Sprintf("seed %#x; same seed and schedule reproduce these bytes exactly", opts.Seed),
		},
	}
	type deployment struct {
		name    string
		machine string
		fs      FS
		nodes   int
		servers int
	}
	// Server counts follow Section IV-B: 8 CNodes on Wombat, 16 NSD
	// servers on Lassen, 36 OSSes on Ruby.
	deps := []deployment{
		{"vast/Wombat", "Wombat", VAST, 2, 8},
		{"gpfs/Lassen", "Lassen", GPFS, 2, 16},
		{"lustre/Ruby", "Ruby", Lustre, 2, 36},
	}
	fracs := []float64{0, 0.125, 0.25, 0.5}
	if opts.Quick {
		fracs = []float64{0, 0.25, 0.5}
	}
	segments := 96
	if opts.Quick {
		segments = 32
	}
	var series []sweepSeries
	for _, d := range deps {
		series = append(series, sweepSeries{name: d.name, fs: d.fs, xs: fracs,
			point: func(frac, _ float64, seed uint64) (float64, error) {
				res, _, err := RunIORWithFaults(d.machine, d.fs, d.nodes, ior.Config{
					Workload:     ior.Scientific,
					BlockSize:    1 << 20,
					TransferSize: 1 << 20,
					Segments:     segments,
					ProcsPerNode: 8,
					OpLevel:      true, // ops re-resolve paths, so failover is live
					Seed:         seed,
					Dir:          "/degraded",
				}, serverFailures(int(frac*float64(d.servers)), 10*time.Millisecond))
				return res.WriteBW / 1e9, err
			}})
	}
	opts.Reps = 1 // one run per point, whatever -reps is
	panels, err := sweep([]Panel{p}, series, opts)
	if err != nil {
		return Panel{}, err
	}
	return panels[0], nil
}
