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
func dlioNodes(model string, quick bool) []float64 {
	if model == "cosmoflow" {
		if quick {
			return []float64{1, 8}
		}
		return []float64{1, 2, 4, 8}
	}
	if quick {
		return []float64{1, 8, 32}
	}
	return []float64{1, 2, 4, 8, 16, 32}
}

// dlioPanels runs the model on both file systems over the node sweep, all
// points at once on the point pool, and builds its three panels from that
// one sweep: the I/O time analysis, the application throughput and the
// system throughput. model is "resnet50" (Figs. 4a and 5, weak scaling) or
// "cosmoflow" (Figs. 4b and 6, strong scaling).
func dlioPanels(model string, opts Options) (io, app, system Panel, err error) {
	cfg, id, err := modelConfig(model)
	if err != nil {
		return Panel{}, Panel{}, Panel{}, err
	}
	opts = opts.withDefaults()
	fss := []FS{VAST, GPFS}
	var pts []repPoint
	for s, fs := range fss {
		rng := stats.NewRNG(opts.Seed ^ hashString(cfg.Model+string(fs)))
		pts = appendReps(pts, s, dlioNodes(cfg.Model, opts.Quick), opts.Reps, rng, contentionSpread(fs), opts.Seed)
	}
	res, err := runPoints(len(pts), func(i int) (dlio.Result, error) {
		pt := pts[i]
		return dlioPoint(fss[pt.series], int(pt.x), cfg, pt.derate, pt.seed)
	})
	if err != nil {
		return Panel{}, Panel{}, Panel{}, err
	}
	// Per file system: I/O seconds overlapping compute and not
	// overlapping it, application and system samples/s.
	series := make([][4]stats.Series, len(fss))
	for s, fs := range fss {
		name := string(fs)
		series[s] = [4]stats.Series{{Name: name + " overlap"}, {Name: name + " non-overlap"}, {Name: name}, {Name: name}}
	}
	for i := 0; i < len(pts); i += opts.Reps {
		var ovl, novl, av, sv []float64
		for _, r := range res[i : i+opts.Reps] {
			ovl = append(ovl, r.Analysis.OverlapIO.Seconds())
			novl = append(novl, r.Analysis.NonOverlapIO.Seconds())
			av = append(av, r.AppSamplesPerSec)
			sv = append(sv, r.SysSamplesPerSec)
		}
		for k, vals := range [][]float64{ovl, novl, av, sv} {
			m, d := summarizeReps(vals)
			series[pts[i].series][k].Append(pts[i].x, m, d)
		}
	}
	figNum := "fig5"
	if id == "b" {
		figNum = "fig6"
	}
	io = Panel{
		ID:     "fig4" + id,
		Title:  fmt.Sprintf("%s I/O time analysis (Lassen, VAST vs GPFS)", cfg.Model),
		XLabel: "nodes",
		YLabel: "seconds",
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
	for _, ss := range series {
		io.Series = append(io.Series, ss[0], ss[1])
		app.Series = append(app.Series, ss[2])
		system.Series = append(system.Series, ss[3])
	}
	return io, app, system, nil
}

// Fig4 reproduces Figure 4 (I/O time analysis): for each file system, the
// overlapping and non-overlapping I/O seconds per node count. model is
// "resnet50" (Fig. 4a, weak scaling) or "cosmoflow" (Fig. 4b, strong
// scaling).
func Fig4(model string, opts Options) (Panel, error) {
	io, _, _, err := dlioPanels(model, opts)
	return io, err
}

// Fig56 reproduces Figures 5 and 6 (application and system throughput in
// samples/s) for the given model: "resnet50" → Fig. 5, "cosmoflow" →
// Fig. 6. It returns the app-throughput panel and the system-throughput
// panel.
func Fig56(model string, opts Options) (app, system Panel, err error) {
	_, app, system, err = dlioPanels(model, opts)
	return app, system, err
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
