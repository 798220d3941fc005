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

// ChaosReport is the outcome of one seeded storm.
type ChaosReport struct {
	Backend      string
	Machine      string
	Seed         uint64
	Delivered    int // fault events actually delivered
	WriteBW      float64
	LostBytes    float64
	RebuiltBytes float64
	Losses       int
	Rebuilds     int
	Violations   []string
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

// RunChaosStorm generates the seeded storm for fs's canonical deployment,
// wraps the backend in a repair.Manager, attaches the invariant checker
// and runs an op-level IOR foreground through it. Storm generation is
// profile-driven: server and unit counts come from the backend itself.
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
	prot, ok := tb.target.(repair.Protected)
	if !ok {
		return ChaosReport{}, fmt.Errorf("experiments: %s target declares no redundancy scheme", fs)
	}
	scheme := prot.RepairScheme()
	storm := chaos.Storm(seed, chaos.Profile{
		Target:          string(fs),
		Servers:         prot.FaultServers(),
		Units:           prot.FaultUnits(),
		UnitsAreServers: scheme.ServersHoldData,
		Horizon:         30 * time.Millisecond,
		Events:          12,
	})
	mgr := repair.NewManager(tb.env, tb.fab, prot, repair.QoS{MinBytes: 32 << 20})
	inj := faults.NewInjector(tb.env)
	inj.Register(string(fs), mgr)
	if err := inj.Apply(storm); err != nil {
		return ChaosReport{}, err
	}
	checker := invariants.Attach(tb.env, tb.fab, 250*time.Microsecond)
	checker.Final("rebuild-completes-or-reports-loss", mgr.CheckComplete)
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
	if tb.vast != nil {
		written := int64(2*cfg.ProcsPerNode) * cfg.BlockSize * int64(cfg.Segments)
		sys := tb.vast
		checker.Final("byte-conservation", invariants.ConserveBytes(
			func() int64 { return written },
			func() int64 { return sys.StagedBytes() + sys.MigratedBytes() }))
	}
	res, err := ior.Run(tb.env, tb.mounts, cfg)
	if err != nil {
		return ChaosReport{}, err
	}
	if checker.Samples() == 0 {
		return ChaosReport{}, fmt.Errorf("experiments: chaos checker never sampled")
	}
	checker.Err() // fold final checks into Violations
	return ChaosReport{
		Backend:      string(fs),
		Machine:      machine,
		Seed:         seed,
		Delivered:    len(inj.Applied()),
		WriteBW:      res.WriteBW,
		LostBytes:    mgr.LostBytes(),
		RebuiltBytes: mgr.RebuiltBytes(),
		Losses:       len(mgr.Losses()),
		Rebuilds:     len(mgr.Jobs()),
		Violations:   checker.Violations(),
	}, nil
}

// ChaosBackends lists every deployment the gate covers.
func ChaosBackends() []FS { return []FS{VAST, GPFS, Lustre, NVMe, UnifyFS} }

// Interface check: the conservation hook needs the concrete VAST system.
var _ = (*vast.System)(nil)
