package experiments

import (
	"fmt"

	"storagesim/internal/cluster"
	"storagesim/internal/dlio"
	"storagesim/internal/ior"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
	"storagesim/internal/vast"
)

// TableI reprints the paper's cluster table.
func TableI() Table {
	t := Table{
		ID:     "table1",
		Title:  "Clusters used for experiments",
		Header: []string{"Name", "Nodes", "CPU", "GPU", "RAM", "Arch", "Network"},
	}
	for _, m := range cluster.Machines() {
		t.Rows = append(t.Rows, []string{
			m.Name,
			fmt.Sprint(m.Nodes), fmt.Sprint(m.CPUsPerNode), fmt.Sprint(m.GPUsPerNode),
			fmt.Sprint(m.RAMGB), m.Arch, m.Network,
		})
	}
	return t
}

// RunIOROnce builds the machine+fs testbed with the given node count and
// runs one fully explicit IOR configuration on it — the entry point for
// cmd/iorbench and ad-hoc experiments.
func RunIOROnce(machine string, fs FS, nodes int, cfg ior.Config) (ior.Result, error) {
	res, _, err := RunIORWithBottlenecks(machine, fs, nodes, cfg, 0)
	return res, err
}

// RunIORWithBottlenecks is RunIOROnce with utilization accounting: it also
// returns the topN busiest pipes of the run — the simulator's direct
// answer to "what limited this number?".
func RunIORWithBottlenecks(machine string, fs FS, nodes int, cfg ior.Config, topN int) (ior.Result, []sim.PipeUtil, error) {
	tb, err := buildTestbed(machine, fs, nodes, nil)
	if err != nil {
		return ior.Result{}, nil, err
	}
	if topN > 0 {
		tb.fab.EnableAccounting()
	}
	res, err := ior.Run(tb.env, tb.mounts, cfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	var top []sim.PipeUtil
	if topN > 0 {
		top = tb.fab.TopUtilized(topN)
	}
	return res, top, nil
}

// RunDLIOOnce builds the Lassen testbed for fs and runs one DLIO
// configuration, returning the result and the recorded trace — the entry
// point for cmd/dliobench.
func RunDLIOOnce(fs FS, nodes int, cfg dlio.Config) (dlio.Result, *trace.Recorder, error) {
	tb, err := buildTestbed("Lassen", fs, nodes, nil)
	if err != nil {
		return dlio.Result{}, nil, err
	}
	rec := trace.NewRecorder()
	res, err := dlio.Run(tb.env, tb.mounts, cfg, rec)
	return res, rec, err
}

// iorPoint runs one IOR configuration once and returns the bandwidth of
// the phase the workload measures, in GB/s.
func iorPoint(machine string, fs FS, nodes, ppn int, wl ior.Workload, segments int, fsync bool, derate float64, seed uint64, mutate func(*vast.Config)) (float64, error) {
	tb, err := buildTestbed(machine, fs, nodes, mutate)
	if err != nil {
		return 0, err
	}
	if derate < 1 {
		tb.derate(derate)
	}
	res, err := ior.Run(tb.env, tb.mounts, ior.Config{
		Workload:     wl,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     segments,
		ProcsPerNode: ppn,
		Fsync:        fsync,
		ReorderTasks: true,
		Seed:         seed,
		Dir:          "/ior",
	})
	if err != nil {
		return 0, err
	}
	bw := res.WriteBW
	if wl != ior.Scientific {
		bw = res.ReadBW
	}
	return bw / 1e9, nil
}

// hashString mixes a name into a seed (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// workloadTitle maps IOR workloads to the paper's panel names.
func workloadTitle(wl ior.Workload) string {
	switch wl {
	case ior.Scientific:
		return "scientific simulations (sequential write)"
	case ior.Analytics:
		return "data analytics (sequential read)"
	default:
		return "ML applications (random read)"
	}
}

// Fig2a reproduces Figure 2a: IOR scalability on Lassen (44 ppn, 1→128
// nodes, 1 MiB transfers, 3000 segments ≈ 129 GB/node), VAST (NFS/TCP)
// against GPFS, one panel per workload.
func Fig2a(opts Options) ([]Panel, error) {
	return iorScaling("fig2a", "Lassen", 44, []FS{VAST, GPFS}, nodesSweep(opts.Quick), opts)
}

// Fig2b reproduces Figure 2b: IOR scalability on Wombat (48 ppn, 1→8
// nodes), VAST (NFS/RDMA, nconnect=16, multipath) against node-local NVMe.
func Fig2b(opts Options) ([]Panel, error) {
	return iorScaling("fig2b", "Wombat", 48, []FS{VAST, NVMe}, wombatSweep(opts.Quick), opts)
}

// iorScaling sweeps machine's node counts at ppn processes per node on
// each file system, one panel per IOR workload.
func iorScaling(fig, machine string, ppn int, fss []FS, nodes []float64, opts Options) ([]Panel, error) {
	var panels []Panel
	var series []sweepSeries
	for _, wl := range []ior.Workload{ior.Scientific, ior.Analytics, ior.ML} {
		for _, fs := range fss {
			series = append(series, sweepSeries{panel: len(panels), name: string(fs), fs: fs, xs: nodes,
				point: func(x, derate float64, seed uint64) (float64, error) {
					return iorPoint(machine, fs, int(x), ppn, wl, 3000, false, derate, seed, nil)
				}})
		}
		panels = append(panels, Panel{
			ID:     fmt.Sprintf("%s-%s", fig, wl),
			Title:  machine + " scalability: " + workloadTitle(wl),
			XLabel: "nodes",
			YLabel: "aggregate GB/s",
		})
	}
	return sweep(panels, series, opts)
}

// Fig3 reproduces Figure 3: single-node tests with fsync on writes,
// scaling processes 1→32, on all four machines. Each sub-figure yields a
// write panel (scientific, fsync) and a read panel (data analytics).
func Fig3(opts Options) ([]Panel, error) {
	cases := []struct {
		sub, machine string
		systems      []FS
	}{
		{"a", "Lassen", []FS{VAST, GPFS}},
		{"b", "Quartz", []FS{VAST, Lustre}},
		{"c", "Ruby", []FS{VAST, Lustre}},
		{"d", "Wombat", []FS{VAST, NVMe}},
	}
	// 32 segments of 1 MiB per rank keep the op-level run short while still
	// reaching steady state.
	const segments = 32
	var panels []Panel
	var series []sweepSeries
	for _, c := range cases {
		for _, phase := range []ior.Workload{ior.Scientific, ior.Analytics} {
			kind := "write+fsync"
			if phase == ior.Analytics {
				kind = "read"
			}
			for _, fs := range c.systems {
				series = append(series, sweepSeries{panel: len(panels), name: string(fs), fs: fs, xs: procsSweep(opts.Quick),
					point: func(x, derate float64, seed uint64) (float64, error) {
						return iorPoint(c.machine, fs, 1, int(x), phase, segments, true, derate, seed, nil)
					}})
			}
			panels = append(panels, Panel{
				ID:     fmt.Sprintf("fig3%s-%s", c.sub, kind),
				Title:  fmt.Sprintf("%s single node, %s", c.machine, kind),
				XLabel: "processes",
				YLabel: "GB/s",
			})
		}
	}
	return sweep(panels, series, opts)
}
