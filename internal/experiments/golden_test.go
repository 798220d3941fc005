package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite every golden file")

// goldens pins rendered bytes: each row maps a file under testdata/ to the
// generator that renders it. The fabric solver, the repetition fan-out and
// the backend path construction may be rearranged freely for performance,
// but the simulated virtual-time results — and therefore every printed
// digit — must not move, under the default kernel build and under the
// oracle build (-tags simreference; `make oracle`). A generator that
// asserts more than bytes (determinism across runs, a headline property)
// does so itself. Adding a golden
// takes one row; regenerate every file deliberately with:
//
//	go test ./internal/experiments -run TestGolden -update-golden
var goldens = map[string]func(*testing.T) string{
	// The IOR scalability panels exercise the full VAST and GPFS stacks
	// (5632 flows at the 64-node point) through the class-aggregated solver.
	"fig2a_quick_reps3.golden": func(t *testing.T) string {
		panels, err := Fig2a(Options{Quick: true, Reps: 3})
		return renderPanels(t, err, panels...)
	},
	// The NVMe/GPFS/VAST fsync paths write back real dirty ranges out of
	// the client page cache.
	"fig3_quick.golden": func(t *testing.T) string {
		panels, err := Fig3(Options{Quick: true})
		return renderPanels(t, err, panels...)
	},
	// Every ResNet-50 DLIO sample opens, reads and closes its file, so the
	// page cache's clean-file flush on close runs once per sample.
	"fig5_quick.golden": func(t *testing.T) string {
		app, system, err := Fig56("resnet50", Options{Quick: true})
		return renderPanels(t, err, app, system)
	},
	// Four contended repetitions through the parallel repetition runner.
	"consistency_quick.golden": func(t *testing.T) string {
		tab, err := Consistency(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	},
	// Fault delivery through the event calendar is part of the schedule.
	"degraded_quick.golden": func(t *testing.T) string {
		p, err := DegradedSweep(Options{Quick: true})
		return renderPanels(t, err, p)
	},
	"rebuild_quick.golden": goldenRebuild,
	// Op-level writes while 0, 1, 2 and 4 VAST CNodes fail 10 ms in:
	// client failover and the NFS retransmit penalty are in the schedule.
	"failover_quick.golden": func(t *testing.T) string {
		tab, err := FailoverStudy(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	},
	// UnifyFS chunk placement and I/O-server pools, op-level.
	"ablation_unifyfs_quick.golden": func(t *testing.T) string {
		tab, err := AblationUnifyFS(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return tab.Render()
	},
	// The canonical four-tenant, one-million-client mix driven open-loop
	// over VAST and Lustre at four load multipliers.
	"saturation_quick.golden": func(t *testing.T) string {
		panels, err := SaturationSweep(Options{Quick: true})
		return renderPanels(t, err, panels...)
	},
	// The full bucketed timeline of the metastable-failure contrast:
	// deadline cancellations, jittered backoffs, breaker transitions and
	// fault delivery are all part of the schedule.
	"retrystorm_quick.golden": func(t *testing.T) string {
		return renderPanels(t, nil, quickStorm(t).Panels...)
	},
	"sharded_traffic_lockstep.golden": goldenShardedLockstep,
	"fidelity_quick.golden":           goldenFidelity,
	"whatif_quick.golden":             goldenWhatIf,
	"whatif_fig_quick.golden":         goldenWhatIfFigure,
	"chaos_digests.golden":            goldenChaosDigests,
}

// renderPanels fails t on err and concatenates the rendered panels.
func renderPanels(t *testing.T, err error, panels ...Panel) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range panels {
		b.WriteString(p.Render())
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	names := make([]string, 0, len(goldens))
	for name := range goldens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gen := goldens[name]
		t.Run(strings.TrimSuffix(name, ".golden"), func(t *testing.T) {
			got := gen(t)
			path := filepath.Join("testdata", name)
			if *updateGolden {
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
		})
	}
}
