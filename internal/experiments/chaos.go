package experiments

import (
	"fmt"
	"math"
	"time"

	"storagesim/internal/faults"
	"storagesim/internal/faults/invariants"
	"storagesim/internal/ior"
	"storagesim/internal/repair"
	"storagesim/internal/repair/chaos"
	"storagesim/internal/vast"
)

// Chaos fuzzing gate: randomized fault storms against every backend with
// the full invariant suite attached — over-allocation, nominal-capacity,
// clock monotonicity, byte conservation (VAST's staging split) and
// rebuild-completes-or-reports-loss. A fixed seed reproduces the storm,
// the run and the report digest byte-for-byte; TestGolden/chaos_digests
// pins three seeds per backend under every kernel build.

// StormOutcome is one seeded storm's accounting on one testbed: what the
// injector delivered, what the repair manager rebuilt or lost, and what
// the invariant checker saw. The plain, resilient and sharded chaos
// reports embed it.
type StormOutcome struct {
	Seed         uint64 // the storm's seed
	Delivered    int    // fault events actually delivered
	LostBytes    float64
	RebuiltBytes float64
	Losses       int
	Rebuilds     int
	Violations   []string
}

// ChaosReport is the outcome of one seeded storm.
type ChaosReport struct {
	Backend string
	Machine string
	WriteBW float64
	StormOutcome
}

// Digest renders the run's observable outcome with full float bit
// patterns — the byte-determinism witness for a fixed seed.
func (r ChaosReport) Digest() string {
	return fmt.Sprintf("%s/%s seed=%#x delivered=%d bw=%016x lost=%016x rebuilt=%016x losses=%d rebuilds=%d violations=%d",
		r.Backend, r.Machine, r.Seed, r.Delivered,
		math.Float64bits(r.WriteBW), math.Float64bits(r.LostBytes), math.Float64bits(r.RebuiltBytes),
		r.Losses, r.Rebuilds, len(r.Violations))
}

// chaosMachine is each deployment's canonical testbed machine.
func chaosMachine(fs FS) (string, error) {
	switch fs {
	case VAST, NVMe, UnifyFS:
		return "Wombat", nil
	case GPFS:
		return "Lassen", nil
	case Lustre:
		return "Ruby", nil
	}
	return "", fmt.Errorf("experiments: no chaos machine for %q", fs)
}

// stormRig is a testbed armed with a seeded storm: the storm is injected
// into a repair.Manager around the backend, and an invariant checker
// samples the fabric.
type stormRig struct {
	seed    uint64
	mgr     *repair.Manager
	inj     *faults.Injector
	checker *invariants.Checker
}

// armStorm draws the seeded storm for fs from the backend's own server and
// unit counts, wraps the backend in a repair.Manager, arms the storm on it
// and attaches the invariant checker with the rebuild-completes-or-
// reports-loss final check. The storm and the checker's sampler both file
// calendar events, and same-instant events run in filing order, so the
// storm is armed first, as it always has been.
func armStorm(tb *testbed, fs FS, seed uint64) (*stormRig, error) {
	prot, ok := tb.sys.(repair.Protected)
	if !ok {
		return nil, fmt.Errorf("experiments: %s target declares no redundancy scheme", fs)
	}
	storm := chaos.Storm(seed, chaos.Profile{
		Target:          string(fs),
		Servers:         prot.FaultServers(),
		Units:           faults.UnitCount(prot),
		UnitsAreServers: faults.UnitsAreServers(prot),
		Horizon:         30 * time.Millisecond,
		Events:          12,
	})
	mgr := repair.NewManager(tb.env, tb.fab, prot, repair.QoS{MinBytes: 32 << 20})
	inj, err := tb.inject(string(fs), mgr, storm)
	if err != nil {
		return nil, err
	}
	checker := invariants.Attach(tb.env, tb.fab, 250*time.Microsecond)
	checker.Final("rebuild-completes-or-reports-loss", mgr.CheckComplete)
	return &stormRig{seed: seed, mgr: mgr, inj: inj, checker: checker}, nil
}

// outcome folds the checker's final checks into its violations and reports
// the storm's accounting. A checker that never sampled watched nothing,
// which is an error.
func (s *stormRig) outcome() (StormOutcome, error) {
	if s.checker.Samples() == 0 {
		return StormOutcome{}, fmt.Errorf("experiments: chaos checker never sampled")
	}
	s.checker.Err() // fold final checks into Violations
	return StormOutcome{
		Seed:         s.seed,
		Delivered:    len(s.inj.Applied()),
		LostBytes:    s.mgr.LostBytes(),
		RebuiltBytes: s.mgr.RebuiltBytes(),
		Losses:       len(s.mgr.Losses()),
		Rebuilds:     len(s.mgr.Jobs()),
		Violations:   s.checker.Violations(),
	}, nil
}

// RunChaosStorm arms the seeded storm on fs's canonical deployment
// (armStorm) and runs an op-level IOR foreground through it.
func RunChaosStorm(fs FS, seed uint64, opts Options) (ChaosReport, error) {
	opts = opts.withDefaults()
	machine, err := chaosMachine(fs)
	if err != nil {
		return ChaosReport{}, err
	}
	tb, err := buildTestbed(machine, fs, 2, nil)
	if err != nil {
		return ChaosReport{}, err
	}
	rig, err := armStorm(tb, fs, seed)
	if err != nil {
		return ChaosReport{}, err
	}
	cfg := ior.Config{
		Workload:     ior.Scientific,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     8,
		ProcsPerNode: 4,
		OpLevel:      true, // ops re-resolve paths, so failover is live
		Seed:         opts.Seed + seed,
		Dir:          "/chaos",
	}
	if sys, ok := tb.sys.(*vast.System); ok {
		written := int64(2*cfg.ProcsPerNode) * cfg.BlockSize * int64(cfg.Segments)
		rig.checker.Final("byte-conservation", invariants.ConserveBytes(
			func() int64 { return written },
			func() int64 { return sys.StagedBytes() + sys.MigratedBytes() }))
	}
	res, err := ior.Run(tb.env, tb.mounts, cfg)
	if err != nil {
		return ChaosReport{}, err
	}
	out, err := rig.outcome()
	if err != nil {
		return ChaosReport{}, err
	}
	return ChaosReport{Backend: string(fs), Machine: machine, WriteBW: res.WriteBW, StormOutcome: out}, nil
}

// ChaosBackends lists every deployment the gate covers.
func ChaosBackends() []FS { return []FS{VAST, GPFS, Lustre, NVMe, UnifyFS} }
