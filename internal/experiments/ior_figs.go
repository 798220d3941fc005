package experiments

import (
	"fmt"

	"storagesim/internal/cluster"
	"storagesim/internal/dlio"
	"storagesim/internal/ior"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
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

// iorSeries sweeps xs (node or proc counts) with reps repetitions, all
// points at once on the point pool, and returns a series of mean aggregate
// GB/s with stddev error bars.
func iorSeries(name, machine string, fs FS, xs []int, point func(x int, derate float64, seed uint64) (float64, error), opts Options) (stats.Series, error) {
	opts = opts.withDefaults()
	s := stats.Series{Name: name}
	tbSpread := dedicatedSpread
	if fs == GPFS || fs == Lustre {
		tbSpread = sharedSpread
	}
	pts := appendReps(nil, 0, xs, opts.Reps, stats.NewRNG(opts.Seed^hashString(name)), tbSpread, opts.Seed)
	vals, err := runPoints(len(pts), func(i int) (float64, error) {
		return point(pts[i].x, pts[i].derate, pts[i].seed)
	})
	if err != nil {
		return s, err
	}
	for i := 0; i < len(pts); i += opts.Reps {
		mean, dev := summarizeReps(vals[i : i+opts.Reps])
		s.Append(float64(pts[i].x), mean, dev)
	}
	return s, nil
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
	opts = opts.withDefaults()
	segments := 3000
	var panels []Panel
	for _, wl := range []ior.Workload{ior.Scientific, ior.Analytics, ior.ML} {
		panel := Panel{
			ID:     fmt.Sprintf("fig2a-%s", wl),
			Title:  "Lassen scalability: " + workloadTitle(wl),
			XLabel: "nodes",
			YLabel: "aggregate GB/s",
		}
		for _, fs := range []FS{VAST, GPFS} {
			fs := fs
			wl := wl
			s, err := iorSeries(string(fs), "Lassen", fs, nodesSweep(opts.Quick),
				func(x int, f float64, seed uint64) (float64, error) {
					return iorPoint("Lassen", fs, x, 44, wl, segments, false, f, seed, nil)
				}, opts)
			if err != nil {
				return nil, err
			}
			panel.Series = append(panel.Series, s)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// Fig2b reproduces Figure 2b: IOR scalability on Wombat (48 ppn, 1→8
// nodes), VAST (NFS/RDMA, nconnect=16, multipath) against node-local NVMe.
func Fig2b(opts Options) ([]Panel, error) {
	opts = opts.withDefaults()
	segments := 3000
	var panels []Panel
	for _, wl := range []ior.Workload{ior.Scientific, ior.Analytics, ior.ML} {
		panel := Panel{
			ID:     fmt.Sprintf("fig2b-%s", wl),
			Title:  "Wombat scalability: " + workloadTitle(wl),
			XLabel: "nodes",
			YLabel: "aggregate GB/s",
		}
		for _, fs := range []FS{VAST, NVMe} {
			fs := fs
			wl := wl
			s, err := iorSeries(string(fs), "Wombat", fs, wombatSweep(opts.Quick),
				func(x int, f float64, seed uint64) (float64, error) {
					return iorPoint("Wombat", fs, x, 48, wl, segments, false, f, seed, nil)
				}, opts)
			if err != nil {
				return nil, err
			}
			panel.Series = append(panel.Series, s)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// fig3Case describes one Figure 3 sub-figure.
type fig3Case struct {
	sub     string
	machine string
	systems []FS
}

// Fig3 reproduces Figure 3: single-node tests with fsync on writes,
// scaling processes 1→32, on all four machines. Each sub-figure yields a
// write panel (scientific, fsync) and a read panel (data analytics).
func Fig3(opts Options) ([]Panel, error) {
	opts = opts.withDefaults()
	cases := []fig3Case{
		{"a", "Lassen", []FS{VAST, GPFS}},
		{"b", "Quartz", []FS{VAST, Lustre}},
		{"c", "Ruby", []FS{VAST, Lustre}},
		{"d", "Wombat", []FS{VAST, NVMe}},
	}
	// 32 segments of 1 MiB per rank keep the op-level run short while still
	// reaching steady state.
	const segments = 32
	var panels []Panel
	for _, c := range cases {
		for _, phase := range []ior.Workload{ior.Scientific, ior.Analytics} {
			kind := "write+fsync"
			if phase == ior.Analytics {
				kind = "read"
			}
			panel := Panel{
				ID:     fmt.Sprintf("fig3%s-%s", c.sub, kind),
				Title:  fmt.Sprintf("%s single node, %s", c.machine, kind),
				XLabel: "processes",
				YLabel: "GB/s",
			}
			for _, fs := range c.systems {
				fs := fs
				phase := phase
				machine := c.machine
				s, err := iorSeries(string(fs), machine, fs, procsSweep(opts.Quick),
					func(x int, f float64, seed uint64) (float64, error) {
						return iorPoint(machine, fs, 1, x, phase, segments, true, f, seed, nil)
					}, opts)
				if err != nil {
					return nil, err
				}
				panel.Series = append(panel.Series, s)
			}
			panels = append(panels, panel)
		}
	}
	return panels, nil
}
