package experiments

import (
	"fmt"

	"storagesim/internal/faults"
	"storagesim/internal/ior"
	"storagesim/internal/repair"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
)

// Self-healing studies: what foreground workloads deliver while a
// redundancy rebuild is reconstructing a failed unit. Unlike the degraded
// sweeps (degraded.go), which use the raw PR 2 fault model with its
// instantaneous free recovery, these runs wrap the backend in a
// repair.Manager: failures spawn background rebuild jobs whose flows
// genuinely contend with the benchmark through the fabric solver.

// RunIORWithRepair builds the machine+fs testbed, wraps the backend in a
// repair.Manager with the given rebuild QoS, arms the fault schedule on
// the manager (so failures trigger rebuilds or loss accounting instead of
// PR 2's snap-back recovery), and runs one IOR configuration.
func RunIORWithRepair(machine string, fs FS, nodes int, cfg ior.Config, sched faults.Schedule, qos repair.QoS) (ior.Result, *repair.Manager, error) {
	tb, mgr, err := buildRepairTestbed(machine, fs, nodes, sched, qos)
	if err != nil {
		return ior.Result{}, nil, err
	}
	res, err := ior.Run(tb.env, tb.mounts, cfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	return res, mgr, nil
}

// buildRepairTestbed wires testbed + manager + injector without running a
// workload, for callers that need to attach samplers or checkers first.
func buildRepairTestbed(machine string, fs FS, nodes int, sched faults.Schedule, qos repair.QoS) (*testbed, *repair.Manager, error) {
	tb, err := buildTestbed(machine, fs, nodes, nil)
	if err != nil {
		return nil, nil, err
	}
	prot, ok := tb.sys.(repair.Protected)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: %s target declares no redundancy scheme", fs)
	}
	mgr := repair.NewManager(tb.env, tb.fab, prot, qos)
	if _, err := tb.inject(string(fs), mgr, sched); err != nil {
		return nil, nil, err
	}
	return tb, mgr, nil
}

// Rebuild sweep tuning. The figure runs VAST on Wombat — the sharpest
// contention story: the workload's SCM→QLC drain and the EC
// reconstruction meet on the QLC backbone, so the rebuild-rate knob
// trades foreground bandwidth against time-to-redundancy in a single
// sampled curve.
const (
	// rebuildSweepBuckets is the number of bandwidth samples per series.
	rebuildSweepBuckets = 16
	// rebuildFloorBytes sizes the reconstruction (QoS.MinBytes): a real
	// DBox holds far more live data than a quick benchmark writes, so the
	// floor stands in for a realistically loaded enclosure.
	rebuildFloorBytes = 256 << 20
	// rebuildThrottleBps is the background-priority rebuild rate cap. At
	// this trickle the reconstruction outlives the sampling window, so
	// the throttled series stays degraded to its end while the
	// aggressive series dips deep and recovers.
	rebuildThrottleBps = 1e9
	// rebuildSweepNodes is the client scale of the sampled runs.
	rebuildSweepNodes = 2
)

// RebuildSweep traces foreground IOR write bandwidth over time while a
// DBox fails a quarter into the run and is rebuilt under two QoS
// settings: throttled (repair trickles, foreground stays degraded to the
// end of the window) and aggressive (repair takes its fair share,
// foreground dips harder but redundancy returns within the run). The
// trade-off the rebuild-rate knob buys is the figure's whole point.
func RebuildSweep(opts Options) (Panel, error) {
	opts = opts.withDefaults()
	segments := 48
	if opts.Quick {
		segments = 24
	}
	// Per-write fsync keeps every rank synchronously paced by the CBox↔DBox
	// fabric — the contended resource — so the sampled segment completions
	// trace delivered bandwidth instead of cache-absorption bursts.
	cfg := ior.Config{
		Workload:     ior.Scientific,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     segments,
		ProcsPerNode: 16,
		Fsync:        true,
		Seed:         opts.Seed,
		Dir:          "/rebuild",
	}
	// Size the time axis from an untouched clean run: the window covers
	// 1.25x the clean write so the degraded tail stays on the plot.
	clean, _, err := RunIORWithFaults("Wombat", VAST, rebuildSweepNodes, cfg, faults.Schedule{})
	if err != nil {
		return Panel{}, err
	}
	failAt := clean.WriteTime / 4
	interval := 5 * clean.WriteTime / (4 * rebuildSweepBuckets)
	sched := faults.Schedule{Events: []faults.Event{
		{At: failAt, Kind: faults.UnitFail, Index: 0},
	}}
	p := Panel{
		ID:     "rebuild-sweep",
		Title:  "Foreground IOR writes during a DBox rebuild (vast/Wombat)",
		XLabel: "t ms",
		YLabel: "avg write GB/s",
	}
	modes := []struct {
		name string
		qos  repair.QoS
	}{
		{"throttled", repair.QoS{RateBps: rebuildThrottleBps, MinBytes: rebuildFloorBytes}},
		{"aggressive", repair.QoS{MinBytes: rebuildFloorBytes}},
	}
	runs, err := runPoints(len(modes), func(i int) ([]float64, error) {
		return sampleRebuildRun(cfg, sched, modes[i].qos, interval)
	})
	if err != nil {
		return Panel{}, err
	}
	for i, m := range modes {
		// Plot the running average (delivered bytes over elapsed time):
		// rank-synchronized segment completions alias per-bucket deltas,
		// but the running mean is smooth, and the failure, the rebuild
		// contention and the recovery all show as slope changes.
		series := stats.Series{Name: m.name}
		cum := 0.0
		for k, d := range runs[i] {
			cum += d
			elapsed := float64(k+1) * interval.Seconds()
			series.Points = append(series.Points, stats.Point{
				X: elapsed * 1e3,
				Y: cum / elapsed / 1e9,
			})
			series.Err = append(series.Err, 0)
		}
		p.Series = append(p.Series, series)
	}
	p.Notes = append(p.Notes,
		fmt.Sprintf("DBox 0 fails at %v (25%% of the clean run); rebuild floor %d bytes", failAt, int64(rebuildFloorBytes)),
		fmt.Sprintf("throttled caps repair flows at %.0f GB/s; aggressive lets them take their fair share", rebuildThrottleBps/1e9),
		fmt.Sprintf("seed %#x; same seed and schedule reproduce these bytes exactly", opts.Seed),
	)
	return p, nil
}

// sampleRebuildRun runs the workload once under the given rebuild QoS and
// buckets per-rank segment completions (ior.Config.OnSegment) into
// fixed-width intervals: delivered foreground bytes per bucket, with the
// rebuild's own traffic invisible except through the contention it causes.
// Buckets after the run finishes read zero.
func sampleRebuildRun(cfg ior.Config, sched faults.Schedule, qos repair.QoS, interval sim.Duration) ([]float64, error) {
	tb, _, err := buildRepairTestbed("Wombat", VAST, rebuildSweepNodes, sched, qos)
	if err != nil {
		return nil, err
	}
	deltas := newTimeline(interval, rebuildSweepBuckets)
	cfg.OnSegment = func(rank int, at sim.Time, bytes int64) { deltas.add(at, float64(bytes)) }
	if _, err := ior.Run(tb.env, tb.mounts, cfg); err != nil {
		return nil, err
	}
	return deltas.sums, nil
}
