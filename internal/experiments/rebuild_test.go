package experiments

import (
	"testing"

	"storagesim/internal/faults"
	"storagesim/internal/faults/invariants"
	"storagesim/internal/ior"
	"storagesim/internal/repair"
	"storagesim/internal/sim"
)

// dipCase pins one redundant backend's dip-recover-rebuild regime. The
// workload and rebuild QoS are chosen so the failure actually binds the
// foreground: GPFS and Lustre pool dozens of servers behind per-node
// stack pipes, so a tolerance-sized failure only shows when the server
// pools carry enough concurrent load (big transfers, 64 ranks) and the
// rebuild window overlaps the pool-bound phases; VAST loses a quarter of
// its fabric with one of four DBoxes, so a modest workload already dips.
type dipCase struct {
	fs      FS
	machine string
	nodes   int
	cfg     ior.Config
	nfail   int // tolerance-sized concurrent failure
	kind    faults.Kind
	qos     repair.QoS
}

func bigPoolCfg() ior.Config {
	return ior.Config{
		Workload:     ior.Scientific,
		BlockSize:    16 << 20,
		TransferSize: 16 << 20,
		Segments:     8,
		ProcsPerNode: 16,
		OpLevel:      true,
		Seed:         0x5eed,
		Dir:          "/accept",
	}
}

func smallOpCfg() ior.Config {
	return ior.Config{
		Workload:     ior.Scientific,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     24,
		ProcsPerNode: 4,
		OpLevel:      true,
		Seed:         0x5eed,
		Dir:          "/accept",
	}
}

func dipCases() []dipCase {
	return []dipCase{
		// GPFS flushes its RAID traffic in a tail burst, so the rebuild is
		// throttled hard enough to still be reconstructing when the tail
		// lands — partially restored health, strictly between the extremes.
		{GPFS, "Lassen", 4, bigPoolCfg(), 2, faults.ServerFail,
			repair.QoS{RateBps: 0.5e9, MinBytes: 256 << 20}},
		{Lustre, "Ruby", 4, bigPoolCfg(), 2, faults.ServerFail,
			repair.QoS{RateBps: 2e9, MinBytes: 256 << 20}},
		{VAST, "Wombat", 2, smallOpCfg(), 1, faults.UnitFail,
			repair.QoS{MinBytes: 256 << 20}},
	}
}

// dipSchedule fails the first tc.nfail units a quarter into the clean run.
func dipSchedule(tc dipCase, clean ior.Result) faults.Schedule {
	failAt := clean.WriteTime / 4
	var s faults.Schedule
	for i := 0; i < tc.nfail; i++ {
		s.Events = append(s.Events, faults.Event{At: failAt, Kind: tc.kind, Index: i})
	}
	return s
}

// TestRebuildDipRecover is the PR's acceptance criterion on the redundant
// backends: foreground write time with a failure + rebuild sits strictly
// between the clean run (fastest) and a failure that never heals
// (slowest); the rebuild completes; nothing is lost.
func TestRebuildDipRecover(t *testing.T) {
	for _, tc := range dipCases() {
		tc := tc
		t.Run(string(tc.fs), func(t *testing.T) {
			clean, _, err := RunIORWithFaults(tc.machine, tc.fs, tc.nodes, tc.cfg, faults.Schedule{})
			if err != nil {
				t.Fatal(err)
			}
			sched := dipSchedule(tc, clean)
			// Never-healing reference: raw fault engine, no recovery event.
			failOnly, _, err := RunIORWithFaults(tc.machine, tc.fs, tc.nodes, tc.cfg, sched)
			if err != nil {
				t.Fatal(err)
			}
			// Self-healing run: same failure through the repair manager.
			healed, mgr, err := RunIORWithRepair(tc.machine, tc.fs, tc.nodes, tc.cfg, sched, tc.qos)
			if err != nil {
				t.Fatal(err)
			}
			if !(clean.WriteTime < healed.WriteTime) {
				t.Errorf("healed run (%v) not slower than clean (%v): failure cost vanished",
					healed.WriteTime, clean.WriteTime)
			}
			if !(healed.WriteTime < failOnly.WriteTime) {
				t.Errorf("healed run (%v) not faster than never-healing run (%v): rebuild restored nothing",
					healed.WriteTime, failOnly.WriteTime)
			}
			jobs := mgr.Jobs()
			if len(jobs) != tc.nfail {
				t.Fatalf("expected %d rebuild jobs, got %d", tc.nfail, len(jobs))
			}
			for _, j := range jobs {
				if j.End == 0 {
					t.Errorf("unit %d rebuild never completed", j.Unit)
				}
			}
			if mgr.LostBytes() != 0 || len(mgr.Losses()) != 0 {
				t.Errorf("within-tolerance failure lost %g bytes", mgr.LostBytes())
			}
			if err := mgr.CheckComplete(); err != nil {
				t.Errorf("CheckComplete: %v", err)
			}
		})
	}
}

// TestRebuildSteadyStateMatchesClean runs a complete fail + rebuild cycle
// with no foreground traffic, then measures an identical probe workload on
// the healed testbed and on a never-failed one: post-rebuild steady-state
// throughput must equal the pre-failure clean level within 1e-9 relative —
// a completed rebuild may leave no residual derate behind. (The cycle runs
// before any I/O so the two testbeds differ only by the fail + rebuild
// history; a mid-workload failure also perturbs cache and seek state,
// which is real history, not a derate.)
func TestRebuildSteadyStateMatchesClean(t *testing.T) {
	for _, tc := range dipCases() {
		tc := tc
		t.Run(string(tc.fs), func(t *testing.T) {
			probe := tc.cfg
			probe.Dir = "/probe"
			qos := repair.QoS{MinBytes: 64 << 20}

			// Fail tolerance-many units at 1ms, let the rebuilds run dry.
			sched := faults.Schedule{}
			for i := 0; i < tc.nfail; i++ {
				sched.Events = append(sched.Events, faults.Event{
					At: 1e6, Kind: tc.kind, Index: i,
				})
			}
			tb, mgr, err := buildRepairTestbed(tc.machine, tc.fs, tc.nodes, sched, qos)
			if err != nil {
				t.Fatal(err)
			}
			tb.env.Run()
			if err := mgr.CheckComplete(); err != nil {
				t.Fatalf("rebuild incomplete before probe: %v", err)
			}
			probeStart := tb.env.Now()

			// Reference testbed: never failed, idled to the same virtual time
			// so periodic background machinery is in the same phase when the
			// probe starts.
			tbClean, _, err := buildRepairTestbed(tc.machine, tc.fs, tc.nodes, faults.Schedule{}, qos)
			if err != nil {
				t.Fatal(err)
			}
			tbClean.env.After(sim.Duration(probeStart-tbClean.env.Now()), func() {})
			tbClean.env.Run()

			// Capacity state first: every pipe restored to bit-exact nominal.
			if err := invariants.DiffStates(invariants.Snapshot(tbClean.fab), invariants.Snapshot(tb.fab)); err != nil {
				t.Errorf("healed fabric differs from clean fabric: %v", err)
			}

			cleanProbe, err := ior.Run(tbClean.env, tbClean.mounts, probe)
			if err != nil {
				t.Fatal(err)
			}
			healedProbe, err := ior.Run(tb.env, tb.mounts, probe)
			if err != nil {
				t.Fatal(err)
			}
			if err := invariants.SteadyStateMatch("write bandwidth", cleanProbe.WriteBW, healedProbe.WriteBW); err != nil {
				t.Error(err)
			}
			if err := invariants.SteadyStateMatch("read bandwidth", cleanProbe.ReadBW, healedProbe.ReadBW); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestUnprotectedFailureReportsLoss is the other half of the acceptance
// criterion: on the scheme-None backends a data-holding node failure must
// complete the run with a nonzero lost-bytes report — never a hang, never
// a silent clean result.
func TestUnprotectedFailureReportsLoss(t *testing.T) {
	for _, tc := range []struct {
		fs      FS
		machine string
	}{
		{UnifyFS, "Wombat"},
		{NVMe, "Wombat"},
	} {
		tc := tc
		t.Run(string(tc.fs), func(t *testing.T) {
			cfg := smallOpCfg()
			clean, _, err := RunIORWithFaults(tc.machine, tc.fs, 2, cfg, faults.Schedule{})
			if err != nil {
				t.Fatal(err)
			}
			sched := faults.Schedule{Events: []faults.Event{
				{At: clean.WriteTime / 2, Kind: faults.ServerFail, Index: 0},
			}}
			_, mgr, err := RunIORWithRepair(tc.machine, tc.fs, 2, cfg, sched, repair.Aggressive())
			if err != nil {
				t.Fatal(err)
			}
			if mgr.LostBytes() <= 0 {
				t.Errorf("node failure on %s reported %g lost bytes, want > 0", tc.fs, mgr.LostBytes())
			}
			if len(mgr.Jobs()) != 0 {
				t.Errorf("scheme-None backend ran %d rebuilds", len(mgr.Jobs()))
			}
			if err := mgr.CheckComplete(); err != nil {
				t.Errorf("CheckComplete: %v", err)
			}
		})
	}
}

// TestBeyondToleranceReportsLoss drives each redundant backend one unit
// past its declared tolerance with simultaneous failures and demands a
// nonzero loss report while the within-tolerance units still rebuild.
func TestBeyondToleranceReportsLoss(t *testing.T) {
	for _, tc := range dipCases() {
		tc := tc
		t.Run(string(tc.fs), func(t *testing.T) {
			clean, _, err := RunIORWithFaults(tc.machine, tc.fs, tc.nodes, tc.cfg, faults.Schedule{})
			if err != nil {
				t.Fatal(err)
			}
			tbProbe, _, err := buildRepairTestbed(tc.machine, tc.fs, tc.nodes, faults.Schedule{}, tc.qos)
			if err != nil {
				t.Fatal(err)
			}
			tol := tbProbe.sys.(repair.Protected).RepairScheme().Tolerance
			// tol+1 simultaneous failures mid-run: the rebuilds started for
			// the first tol units are nowhere near done, so the last failure
			// exceeds the concurrent-loss budget.
			sched := faults.Schedule{}
			for i := 0; i <= tol; i++ {
				sched.Events = append(sched.Events, faults.Event{
					At:    clean.WriteTime / 2,
					Kind:  tc.kind,
					Index: i,
				})
			}
			_, mgr, err := RunIORWithRepair(tc.machine, tc.fs, tc.nodes, tc.cfg, sched, tc.qos)
			if err != nil {
				t.Fatal(err)
			}
			if len(mgr.Losses()) == 0 || mgr.LostBytes() <= 0 {
				t.Errorf("%d simultaneous failures beyond tolerance %d reported no loss (lost=%g)",
					tol+1, tol, mgr.LostBytes())
			}
			if len(mgr.Jobs()) != tol {
				t.Errorf("expected %d rebuilds for the within-tolerance units, got %d", tol, len(mgr.Jobs()))
			}
			if err := mgr.CheckComplete(); err != nil {
				t.Errorf("CheckComplete: %v", err)
			}
		})
	}
}

// goldenRebuild renders the rebuild figure: the throttled/aggressive
// trade-off is part of the deterministic schedule, so the rendered bytes
// must reproduce exactly.
func goldenRebuild(t *testing.T) string {
	p, err := RebuildSweep(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Series) != 2 {
		t.Fatalf("expected throttled + aggressive series, got %d", len(p.Series))
	}
	var nonzero int
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if pt.Y > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("rebuild sweep rendered an all-zero figure")
	}
	return p.Render()
}
