package experiments

import (
	"fmt"

	"storagesim/internal/dlio"
	"storagesim/internal/stats"
)

// dlioPoint runs one DLIO configuration on Lassen and returns the result.
func dlioPoint(fs FS, nodes int, cfg dlio.Config, derate float64, seed uint64) (dlio.Result, error) {
	tb, err := buildTestbed("Lassen", fs, nodes, nil)
	if err != nil {
		return dlio.Result{}, err
	}
	if derate < 1 {
		tb.derate(derate)
	}
	cfg.Seed = seed
	return dlio.Run(tb.env, tb.mounts, cfg, nil)
}

// dlioNodes returns the node sweep for a model.
func dlioNodes(model string, quick bool) []int {
	if model == "cosmoflow" {
		if quick {
			return []int{1, 8}
		}
		return []int{1, 2, 4, 8}
	}
	if quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// dlioSweep runs the model on both file systems over the node sweep, all
// points at once on the point pool, and hands each node count's
// repetitions to collect in serial order.
func dlioSweep(cfg dlio.Config, opts Options, collect func(fs FS, nodes int, reps []dlio.Result)) error {
	opts = opts.withDefaults()
	fss := []FS{VAST, GPFS}
	var pts []repPoint
	for s, fs := range fss {
		rng := stats.NewRNG(opts.Seed ^ hashString(cfg.Model+string(fs)))
		spread := dedicatedSpread
		if fs == GPFS {
			spread = sharedSpread
		}
		pts = appendReps(pts, s, dlioNodes(cfg.Model, opts.Quick), opts.Reps, rng, spread, opts.Seed)
	}
	res, err := runPoints(len(pts), func(i int) (dlio.Result, error) {
		pt := pts[i]
		return dlioPoint(fss[pt.series], pt.x, cfg, pt.derate, pt.seed)
	})
	if err != nil {
		return err
	}
	for i := 0; i < len(pts); i += opts.Reps {
		collect(fss[pts[i].series], pts[i].x, res[i:i+opts.Reps])
	}
	return nil
}

// Fig4 reproduces Figure 4 (I/O time analysis): for each file system, the
// overlapping and non-overlapping I/O seconds per node count. model is
// "resnet50" (Fig. 4a, weak scaling) or "cosmoflow" (Fig. 4b, strong
// scaling).
func Fig4(model string, opts Options) (Panel, error) {
	cfg, id, err := modelConfig(model)
	if err != nil {
		return Panel{}, err
	}
	panel := Panel{
		ID:     "fig4" + id,
		Title:  fmt.Sprintf("%s I/O time analysis (Lassen, VAST vs GPFS)", cfg.Model),
		XLabel: "nodes",
		YLabel: "seconds",
	}
	series := map[string]*stats.Series{}
	order := []string{}
	for _, fs := range []FS{VAST, GPFS} {
		for _, part := range []string{"overlap", "non-overlap"} {
			name := string(fs) + " " + part
			series[name] = &stats.Series{Name: name}
			order = append(order, name)
		}
	}
	err = dlioSweep(cfg, opts, func(fs FS, n int, reps []dlio.Result) {
		var ovl, novl []float64
		for _, r := range reps {
			ovl = append(ovl, r.Analysis.OverlapIO.Seconds())
			novl = append(novl, r.Analysis.NonOverlapIO.Seconds())
		}
		m, d := summarizeReps(ovl)
		series[string(fs)+" overlap"].Append(float64(n), m, d)
		m, d = summarizeReps(novl)
		series[string(fs)+" non-overlap"].Append(float64(n), m, d)
	})
	if err != nil {
		return Panel{}, err
	}
	for _, name := range order {
		panel.Series = append(panel.Series, *series[name])
	}
	return panel, nil
}

// Fig56 reproduces Figures 5 and 6 (application and system throughput in
// samples/s) for the given model: "resnet50" → Fig. 5, "cosmoflow" →
// Fig. 6. It returns the app-throughput panel and the system-throughput
// panel.
func Fig56(model string, opts Options) (app, system Panel, err error) {
	cfg, id, err := modelConfig(model)
	if err != nil {
		return Panel{}, Panel{}, err
	}
	figNum := "fig5"
	if id == "b" {
		figNum = "fig6"
	}
	app = Panel{
		ID:     figNum + "a-app-throughput",
		Title:  cfg.Model + " application throughput (samples/s)",
		XLabel: "nodes", YLabel: "samples/s",
	}
	system = Panel{
		ID:     figNum + "b-system-throughput",
		Title:  cfg.Model + " system throughput (samples/s)",
		XLabel: "nodes", YLabel: "samples/s",
	}
	appSeries := map[FS]*stats.Series{VAST: {Name: "vast"}, GPFS: {Name: "gpfs"}}
	sysSeries := map[FS]*stats.Series{VAST: {Name: "vast"}, GPFS: {Name: "gpfs"}}
	err = dlioSweep(cfg, opts, func(fs FS, n int, reps []dlio.Result) {
		var av, sv []float64
		for _, r := range reps {
			av = append(av, r.AppSamplesPerSec)
			sv = append(sv, r.SysSamplesPerSec)
		}
		m, d := summarizeReps(av)
		appSeries[fs].Append(float64(n), m, d)
		m, d = summarizeReps(sv)
		sysSeries[fs].Append(float64(n), m, d)
	})
	if err != nil {
		return Panel{}, Panel{}, err
	}
	for _, fs := range []FS{VAST, GPFS} {
		app.Series = append(app.Series, *appSeries[fs])
		system.Series = append(system.Series, *sysSeries[fs])
	}
	return app, system, nil
}

// modelConfig maps a model name to its DLIO preset and figure suffix.
func modelConfig(model string) (dlio.Config, string, error) {
	switch model {
	case "resnet50":
		return dlio.ResNet50(), "a", nil
	case "cosmoflow":
		return dlio.Cosmoflow(), "b", nil
	}
	return dlio.Config{}, "", fmt.Errorf("experiments: unknown DLIO model %q", model)
}
