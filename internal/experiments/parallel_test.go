package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"storagesim/internal/dlio"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
)

// TestRunPointsPanicSurfacesAtCaller: a point that panics on a worker
// re-raises its value on the calling goroutine, lowest index first — ahead
// of a later point's error and a later point's panic — whether the point
// panics in its own code or inside a simulated process, as a model bug in
// an IOR or DLIO rank would.
func TestRunPointsPanicSurfacesAtCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name  string
		raise func(i int) // panics in point i, 2 or 4
		want  any
	}{
		{"in the point", func(i int) { panic(fmt.Sprintf("point %d", i)) }, "point 2"},
		{"in a process", func(i int) {
			// Point 2's process makes a zero-delay transfer over an empty
			// path, which the kernel refuses on the process's goroutine.
			env := sim.NewEnv()
			fab := sim.NewFabric(env)
			env.Go("rank", func(p *sim.Proc) {
				if i == 2 {
					fab.TransferAfter(p, 0, nil, 1e3, 0)
				}
				panic(fmt.Sprintf("point %d", i))
			})
			env.Run()
		}, "sim: flow must cross at least one pipe"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != tc.want {
					t.Fatalf("recovered %v, want %v", r, tc.want)
				}
			}()
			runPoints(5, func(i int) (int, error) {
				switch i {
				case 2, 4:
					tc.raise(i)
				case 3:
					return 0, errors.New("point 3")
				}
				return i, nil
			})
			t.Fatal("runPoints returned despite a panicking point")
		})
	}
}

// TestRunPointsLowestErrorAndOrder: results come back by index, and of two
// failing points the lower index's error wins.
func TestRunPointsLowestErrorAndOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got, err := runPoints(9, func(i int) (int, error) {
		time.Sleep(time.Duration(9-i) * time.Millisecond) // finish out of order
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
	_, err = runPoints(6, func(i int) (int, error) {
		if i == 1 || i == 4 {
			return 0, fmt.Errorf("point %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "point 1" {
		t.Fatalf("error %v, want point 1", err)
	}
}

// quickFigures renders, at two repetitions, every quick figure of
// paperfigs but the closed-form table and the diagram: each runs its
// simulations on the point pool. race marks the set the race detector's
// build renders: every figure but the heavy sweeps (2a, 3, and the DLIO
// figures but 5) and the retry storm's two points, which TestGolden
// already runs under it.
var quickFigures = []struct {
	name   string
	race   bool
	render func(t *testing.T, o Options) string
}{
	{"2a", false, func(t *testing.T, o Options) string { ps, err := Fig2a(o); return renderPanels(t, err, ps...) }},
	{"2b", true, func(t *testing.T, o Options) string { ps, err := Fig2b(o); return renderPanels(t, err, ps...) }},
	{"3", false, func(t *testing.T, o Options) string { ps, err := Fig3(o); return renderPanels(t, err, ps...) }},
	{"4a", false, func(t *testing.T, o Options) string { p, err := Fig4("resnet50", o); return renderPanels(t, err, p) }},
	{"4b", false, func(t *testing.T, o Options) string { p, err := Fig4("cosmoflow", o); return renderPanels(t, err, p) }},
	{"5", true, func(t *testing.T, o Options) string {
		a, s, err := Fig56("resnet50", o)
		return renderPanels(t, err, a, s)
	}},
	{"6", false, func(t *testing.T, o Options) string {
		a, s, err := Fig56("cosmoflow", o)
		return renderPanels(t, err, a, s)
	}},
	{"takeaways", true, func(t *testing.T, o Options) string {
		return renderTables(t, o, TakeawayRDMAvsTCP, TakeawaySeqVsRandom)
	}},
	{"ablations", true, func(t *testing.T, o Options) string {
		var b strings.Builder
		for _, ab := range []func(Options) (Panel, error){AblationFabric, AblationNconnect, AblationCNodes, AblationTCPGateway} {
			p, err := ab(o)
			b.WriteString(renderPanels(t, err, p))
		}
		return b.String() + renderTables(t, o, AblationSharedFile, AblationUnifyFS)
	}},
	{"consistency", true, func(t *testing.T, o Options) string { return renderTables(t, o, Consistency) }},
	{"suitability", true, func(t *testing.T, o Options) string { return renderTables(t, o, WorkloadSuitability) }},
	{"failover", true, func(t *testing.T, o Options) string { return renderTables(t, o, FailoverStudy) }},
	{"degraded", true, func(t *testing.T, o Options) string { p, err := DegradedSweep(o); return renderPanels(t, err, p) }},
	{"rebuild", true, func(t *testing.T, o Options) string { p, err := RebuildSweep(o); return renderPanels(t, err, p) }},
	{"saturation", true, func(t *testing.T, o Options) string {
		ps, err := SaturationSweep(o)
		return renderPanels(t, err, ps...)
	}},
	{"retrystorm", false, func(t *testing.T, o Options) string {
		res, err := RetryStormStudy(o)
		return renderPanels(t, err, res.Panels...)
	}},
	{"whatif", true, func(t *testing.T, o Options) string { ps, err := FigWhatIf(o); return renderPanels(t, err, ps...) }},
}

// renderTables renders the tables the figures build, in order.
func renderTables(t *testing.T, o Options, figs ...func(Options) (Table, error)) string {
	t.Helper()
	var b strings.Builder
	for _, fig := range figs {
		tab, err := fig(o)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.Render())
	}
	return b.String()
}

// TestQuickFiguresIdenticalAcrossWidths renders the quick figures on one
// worker and on four, whatever the host's core count, and requires the
// same bytes: the contention draws happen before the fan-out and results
// merge by index (MODEL.md §6). Under the race detector the four-worker
// pass runs points concurrently even on a one-core host.
func TestQuickFiguresIdenticalAcrossWidths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	o := Options{Quick: true, Reps: 2}
	for _, f := range quickFigures {
		if raceEnabled && !f.race {
			continue
		}
		runtime.GOMAXPROCS(1)
		one := f.render(t, o)
		runtime.GOMAXPROCS(4)
		if four := f.render(t, o); one != four {
			t.Errorf("figure %s differs between 1 and 4 workers:\n--- 1 ---\n%s\n--- 4 ---\n%s", f.name, one, four)
		}
	}
}

// TestTrafficFiguresLeaveNoGoroutines: the windowed traffic runs behind
// the saturation sweep and the retry storm unwind their in-flight requests
// when they end, so the figures leave no goroutine behind. The race build
// checks the sweep only: the storm takes half a minute under it.
func TestTrafficFiguresLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	if _, err := SaturationSweep(quick()); err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		if _, err := RetryStormStudy(quick()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			stacks := string(buf[:runtime.Stack(buf, true)])
			t.Fatalf("%d goroutines left, want %d; first stacks:\n%s", runtime.NumGoroutine(), base,
				stacks[:min(len(stacks), 4000)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDLIOOnlineAnalysisMatchesSpans: the decomposition dlio.Run computes
// online equals trace.Analyze over the run's span log, exactly, for both
// presets at 1 and 8 nodes on both file systems (1 node only under the
// race detector, since no simulation here runs concurrently).
func TestDLIOOnlineAnalysisMatchesSpans(t *testing.T) {
	sweep := []int{1, 8}
	if raceEnabled {
		sweep = sweep[:1]
	}
	for _, cfg := range []dlio.Config{dlio.ResNet50(), dlio.Cosmoflow()} {
		for _, fs := range []FS{VAST, GPFS} {
			for _, nodes := range sweep {
				res, rec, err := RunDLIOOnce(fs, nodes, cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := strings.Join([]string{cfg.Model, string(fs), fmt.Sprint(nodes)}, "/")
				if rec.Len() == 0 {
					t.Fatalf("%s: no spans logged", name)
				}
				if want := trace.Analyze(rec.Spans()); res.Analysis != want {
					t.Errorf("%s: online %+v, Analyze %+v", name, res.Analysis, want)
				}
			}
		}
	}
}
