package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden figure tables")

// The golden figure tests pin the *rendered bytes* of representative figure
// tables. The fabric solver, the repetition fan-out and the backend path
// construction may be rearranged freely for performance, but the simulated
// virtual-time results — and therefore every printed digit — must not move.
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGolden -update-golden

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenFig2aQuick pins the Figure 2a quick-sweep tables: the IOR
// scalability panels exercise the full VAST and GPFS stacks (5632 flows at
// the 64-node point) through the class-aggregated solver.
func TestGoldenFig2aQuick(t *testing.T) {
	panels, err := Fig2a(Options{Quick: true, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range panels {
		b.WriteString(p.Render())
	}
	goldenCompare(t, "fig2a_quick_reps3.golden", b.String())
}

// TestGoldenConsistencyQuick pins the run-to-run consistency table, which
// sweeps 4 contended repetitions through the parallel repetition runner.
func TestGoldenConsistencyQuick(t *testing.T) {
	tab, err := Consistency(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "consistency_quick.golden", tab.Render())
}

// TestGoldenDegradedQuick pins the degraded-mode sweep: fault delivery
// through the event calendar is part of the deterministic schedule, so a
// seeded degraded run must reproduce the same bytes on every machine.
func TestGoldenDegradedQuick(t *testing.T) {
	p, err := DegradedSweep(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "degraded_quick.golden", p.Render())
}

// TestGoldenFig3Quick pins the Figure 3 quick tables: the NVMe/GPFS/VAST
// fsync paths write back real dirty ranges out of the client page cache.
func TestGoldenFig3Quick(t *testing.T) {
	panels, err := Fig3(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range panels {
		b.WriteString(p.Render())
	}
	goldenCompare(t, "fig3_quick.golden", b.String())
}

// TestGoldenFig5Quick pins the Figure 5 quick tables: every ResNet-50 DLIO
// sample opens, reads and closes its file, so the page cache's clean-file
// flush on close runs once per sample.
func TestGoldenFig5Quick(t *testing.T) {
	app, system, err := Fig56("resnet50", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig5_quick.golden", app.Render()+system.Render())
}
