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
// Figures: table1, 1, 2a, 2b, 3, 4a, 4b, 5, 6, takeaways, ablations,
// consistency, suitability, failover, degraded, rebuild, saturation,
// retrystorm, whatif, all.
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
	racks := flag.Int("racks", 0, "shard the saturation figure's traffic runs over this many racks (0 = classic single-env path); only -fig saturation and all accept it")
	remote := flag.Float64("remote", 0.25, "cross-rack placement fraction in [0,1] when -racks > 1")
	flag.Parse()
	want := strings.ToLower(*fig)
	switch {
	case *reps < 1:
		return fail("reps %d is not positive", *reps)
	case *racks < 0:
		return fail("racks %d is negative", *racks)
	case !(*remote >= 0 && *remote <= 1):
		return fail("remote fraction %g out of [0,1]", *remote)
	case want != "all" && !slices.ContainsFunc(figures, func(f figure) bool { return f.name == want }):
		fmt.Fprintf(os.Stderr, "paperfigs: unknown figure %q\n", *fig)
		flag.Usage()
		return 2
	case *racks != 0 && want != "saturation" && want != "all":
		return fail("-racks %d: figure %s does not read it (only saturation does)", *racks, want)
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

	opts := options{
		Reps: *reps, Quick: *quick, Seed: *seed,
		Racks: *racks, RemoteFraction: *remote,
	}
	for _, f := range figures {
		if want != "all" && want != f.name {
			continue
		}
		fmt.Printf("--- %s ---\n", f.name)
		if err := render(f, opts); err != nil {
			return fail("%s: %v", f.name, err)
		}
	}
	return 0
}

type options = storagesim.ExperimentOptions

// A figure is one -fig name: the facade calls that build its panels and
// its tables (nil: none), which render prints in that order.
type figure struct {
	name   string
	panels func(options) ([]storagesim.Panel, error)
	tables func(options) ([]storagesim.ResultTable, error)
}

var figures = []figure{
	{"table1", nil, list(tableI)},
	{"1", diagram, nil},
	{"2a", storagesim.Fig2a, nil},
	{"2b", storagesim.Fig2b, nil},
	{"3", storagesim.Fig3, nil},
	{"4a", list(fig4("resnet50")), nil},
	{"4b", list(fig4("cosmoflow")), nil},
	{"5", fig56("resnet50"), nil},
	{"6", fig56("cosmoflow"), nil},
	{"takeaways", nil, list(storagesim.TakeawayRDMAvsTCP, storagesim.TakeawaySeqVsRandom)},
	{"ablations", list(storagesim.AblationFabric, storagesim.AblationNconnect, storagesim.AblationCNodes, storagesim.AblationTCPGateway),
		list(storagesim.AblationSharedFile, storagesim.AblationUnifyFS)},
	{"consistency", nil, list(storagesim.Consistency)},
	{"suitability", nil, list(storagesim.WorkloadSuitability)},
	{"failover", nil, list(storagesim.FailoverStudy)},
	{"degraded", list(storagesim.DegradedSweep), nil},
	{"rebuild", list(storagesim.RebuildSweep), nil},
	{"saturation", storagesim.SaturationSweep, nil},
	{"retrystorm", retryStorm, nil},
	{"whatif", storagesim.FigWhatIf, nil},
}

// list adapts facade calls that build one panel or one table each to a
// figure's panels or tables, in call order.
func list[T any](calls ...func(options) (T, error)) func(options) ([]T, error) {
	return func(o options) ([]T, error) {
		out := make([]T, len(calls))
		for i, call := range calls {
			var err error
			if out[i], err = call(o); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

func tableI(options) (storagesim.ResultTable, error) { return storagesim.TableIExperiment(), nil }

// diagram prints Figure 1, the one figure that is text rather than panels.
func diagram(options) ([]storagesim.Panel, error) {
	d, err := storagesim.Fig1()
	if err == nil {
		fmt.Println(d)
	}
	return nil, err
}

func fig4(model string) func(options) (storagesim.Panel, error) {
	return func(o options) (storagesim.Panel, error) { return storagesim.Fig4(model, o) }
}

func fig56(model string) func(options) ([]storagesim.Panel, error) {
	return func(o options) ([]storagesim.Panel, error) {
		app, sys, err := storagesim.Fig56(model, o)
		return []storagesim.Panel{app, sys}, err
	}
}

func retryStorm(o options) ([]storagesim.Panel, error) {
	res, err := storagesim.RetryStormStudy(o)
	return res.Panels, err
}

// render builds figure f, then prints its panels (each plotted first when
// -plots is on) and its tables, writing each as CSV when -csv is set.
func render(f figure, o options) error {
	var panels []storagesim.Panel
	var tables []storagesim.ResultTable
	var err error
	if f.panels != nil {
		panels, err = f.panels(o)
	}
	if f.tables != nil && err == nil {
		tables, err = f.tables(o)
	}
	if err != nil {
		return err
	}
	for _, p := range panels {
		if *plots {
			fmt.Println(p.RenderPlot())
		}
		fmt.Println(p.Render())
		if err := exportCSV(p.ID, p.WriteCSV); err != nil {
			return err
		}
	}
	for _, t := range tables {
		fmt.Println(t.Render())
		if err := exportCSV(t.ID, t.WriteCSV); err != nil {
			return err
		}
	}
	return nil
}

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
