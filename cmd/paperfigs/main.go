// Command paperfigs regenerates the tables and figures of "Understanding
// Highly Configurable Storage for Diverse Workloads" (CLUSTER 2024) on the
// simulated testbed.
//
// Usage:
//
//	paperfigs -fig all            # everything (several minutes)
//	paperfigs -fig 2a -reps 10    # one figure, paper-style 10 repetitions
//	paperfigs -fig takeaways -quick
//
// Figures: table1, 2a, 2b, 3, 4a, 4b, 5, 6, takeaways, ablations, all.
//
// A figure's simulations — its (series, x, repetition) points — are
// independent, so each figure runs them on GOMAXPROCS worker goroutines at
// any -reps; the output is byte-identical at any GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	storagesim "storagesim"
	"storagesim/internal/profiling"
)

var (
	plots  = flag.Bool("plots", true, "render ASCII plots above the data tables")
	csvDir = flag.String("csv", "", "also write each panel/table as CSV into this directory")
)

func main() { os.Exit(run()) }

// run is the command; it returns the exit status. Every exit path after
// the profiles start returns through it, so the deferred stop writes them.
func run() int {
	fig := flag.String("fig", "all", "figure to regenerate (table1, 1, 2a, 2b, 3, 4a, 4b, 5, 6, takeaways, ablations, consistency, suitability, failover, degraded, rebuild, saturation, retrystorm, whatif, all)")
	reps := flag.Int("reps", 1, "repetitions per data point (paper uses 10); each figure runs its points and repetitions on GOMAXPROCS workers, with output identical at any width")
	quick := flag.Bool("quick", false, "smaller sweeps")
	seed := flag.Uint64("seed", 0x5eed, "random seed for contention and shuffles")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	racks := flag.Int("racks", 0, "shard the traffic-driven figures over this many racks (0 = classic single-env path)")
	remote := flag.Float64("remote", 0.25, "cross-rack placement fraction when -racks > 1")
	flag.Parse()
	want := strings.ToLower(*fig)
	switch {
	case *reps < 1:
		return fail("reps %d is not positive", *reps)
	case *racks < 0:
		return fail("racks %d is negative", *racks)
	case want != "all" && !slices.ContainsFunc(figures, func(f figure) bool { return f.name == want }):
		fmt.Fprintf(os.Stderr, "paperfigs: unknown figure %q\n", *fig)
		flag.Usage()
		return 2
	}

	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return fail("%v", err)
	}
	defer stop()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail("-csv: %v", err)
		}
	}

	opts := storagesim.ExperimentOptions{
		Reps: *reps, Quick: *quick, Seed: *seed,
		Racks: *racks, RemoteFraction: *remote,
	}
	for _, f := range figures {
		if want != "all" && want != f.name {
			continue
		}
		fmt.Printf("--- %s ---\n", f.name)
		if err := f.run(opts); err != nil {
			return fail("%s: %v", f.name, err)
		}
	}
	return 0
}

type figure struct {
	name string
	run  func(storagesim.ExperimentOptions) error
}

var figures = []figure{
	{"table1", func(o storagesim.ExperimentOptions) error {
		fmt.Println(storagesim.TableIExperiment().Render())
		return nil
	}},
	{"1", func(o storagesim.ExperimentOptions) error {
		diagram, err := storagesim.Fig1()
		if err != nil {
			return err
		}
		fmt.Println(diagram)
		return nil
	}},
	{"2a", func(o storagesim.ExperimentOptions) error {
		panels, err := storagesim.Fig2a(o)
		return renderPanels(panels, err)
	}},
	{"2b", func(o storagesim.ExperimentOptions) error {
		panels, err := storagesim.Fig2b(o)
		return renderPanels(panels, err)
	}},
	{"3", func(o storagesim.ExperimentOptions) error {
		panels, err := storagesim.Fig3(o)
		return renderPanels(panels, err)
	}},
	{"4a", func(o storagesim.ExperimentOptions) error {
		p, err := storagesim.Fig4("resnet50", o)
		return renderPanels([]storagesim.Panel{p}, err)
	}},
	{"4b", func(o storagesim.ExperimentOptions) error {
		p, err := storagesim.Fig4("cosmoflow", o)
		return renderPanels([]storagesim.Panel{p}, err)
	}},
	{"5", func(o storagesim.ExperimentOptions) error {
		app, sys, err := storagesim.Fig56("resnet50", o)
		return renderPanels([]storagesim.Panel{app, sys}, err)
	}},
	{"6", func(o storagesim.ExperimentOptions) error {
		app, sys, err := storagesim.Fig56("cosmoflow", o)
		return renderPanels([]storagesim.Panel{app, sys}, err)
	}},
	{"takeaways", func(o storagesim.ExperimentOptions) error {
		t1, err := storagesim.TakeawayRDMAvsTCP(o)
		if err != nil {
			return err
		}
		fmt.Println(t1.Render())
		if err := exportTableCSV(t1); err != nil {
			return err
		}
		t2, err := storagesim.TakeawaySeqVsRandom(o)
		if err != nil {
			return err
		}
		fmt.Println(t2.Render())
		return exportTableCSV(t2)
	}},
	{"ablations", func(o storagesim.ExperimentOptions) error {
		for _, ab := range []func(storagesim.ExperimentOptions) (storagesim.Panel, error){
			storagesim.AblationFabric,
			storagesim.AblationNconnect,
			storagesim.AblationCNodes,
			storagesim.AblationTCPGateway,
		} {
			p, err := ab(o)
			if err = renderPanels([]storagesim.Panel{p}, err); err != nil {
				return err
			}
		}
		sf, err := storagesim.AblationSharedFile(o)
		if err != nil {
			return err
		}
		fmt.Println(sf.Render())
		if err := exportTableCSV(sf); err != nil {
			return err
		}
		ufs, err := storagesim.AblationUnifyFS(o)
		if err != nil {
			return err
		}
		fmt.Println(ufs.Render())
		return exportTableCSV(ufs)
	}},
	{"consistency", func(o storagesim.ExperimentOptions) error {
		tab, err := storagesim.Consistency(o)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		return exportTableCSV(tab)
	}},
	{"suitability", func(o storagesim.ExperimentOptions) error {
		tab, err := storagesim.WorkloadSuitability(o)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		return exportTableCSV(tab)
	}},
	{"failover", func(o storagesim.ExperimentOptions) error {
		tab, err := storagesim.FailoverStudy(o)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		return exportTableCSV(tab)
	}},
	{"degraded", func(o storagesim.ExperimentOptions) error {
		p, err := storagesim.DegradedSweep(o)
		return renderPanels([]storagesim.Panel{p}, err)
	}},
	{"rebuild", func(o storagesim.ExperimentOptions) error {
		p, err := storagesim.RebuildSweep(o)
		return renderPanels([]storagesim.Panel{p}, err)
	}},
	{"saturation", func(o storagesim.ExperimentOptions) error {
		panels, err := storagesim.SaturationSweep(o)
		return renderPanels(panels, err)
	}},
	{"retrystorm", func(o storagesim.ExperimentOptions) error {
		res, err := storagesim.RetryStormStudy(o)
		if err != nil {
			return err
		}
		return renderPanels(res.Panels, nil)
	}},
	{"whatif", func(o storagesim.ExperimentOptions) error {
		panels, err := storagesim.FigWhatIf(o)
		return renderPanels(panels, err)
	}},
}

func renderPanels(panels []storagesim.Panel, err error) error {
	if err != nil {
		return err
	}
	for _, p := range panels {
		if *plots {
			fmt.Println(p.RenderPlot())
		}
		fmt.Println(p.Render())
		if err := exportPanelCSV(p); err != nil {
			return err
		}
	}
	return nil
}

// exportPanelCSV writes the panel to <csvDir>/<id>.csv when -csv is set.
func exportPanelCSV(p storagesim.Panel) error { return exportCSV(p.ID, p.WriteCSV) }

// exportTableCSV writes a result table likewise.
func exportTableCSV(t storagesim.ResultTable) error { return exportCSV(t.ID, t.WriteCSV) }

// exportCSV writes <csvDir>/<id>.csv with write when -csv is set. A failed
// Close is an error like a failed write: the file may be incomplete.
func exportCSV(id string, write func(io.Writer) error) error {
	if *csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fail prints an error line and returns the exit status 1.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "paperfigs: "+format+"\n", args...)
	return 1
}
