package experiments

import (
	"fmt"

	"storagesim/internal/ior"
	"storagesim/internal/stats"
)

// AblationSharedFile quantifies the methodology choice of Section IV-C.1:
// the paper used file-per-process (N-N) "instead of N-1 (shared-file) as
// the contention, file locking and metadata overhead it introduces can
// make the isolation of the storage system behavior challenging". The
// sweep runs the same sequential-write workload in both layouts on GPFS
// and VAST and reports the N-1 penalty.
func AblationSharedFile(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const nodes, ppn, segments = 4, 16, 64
	t := Table{
		ID:     "ablation-shared-file",
		Title:  "N-N vs N-1 sequential write bandwidth (Lassen, 4 nodes x 16 ppn)",
		Header: []string{"file system", "N-N GB/s", "N-1 GB/s", "N-1 penalty"},
	}
	for _, fs := range []FS{VAST, GPFS} {
		run := func(shared bool) (float64, error) {
			tb, err := buildTestbed("Lassen", fs, nodes, nil)
			if err != nil {
				return 0, err
			}
			res, err := ior.Run(tb.env, tb.mounts, ior.Config{
				Workload:     ior.Scientific,
				BlockSize:    1 << 20,
				TransferSize: 1 << 20,
				Segments:     segments,
				ProcsPerNode: ppn,
				SharedFile:   shared,
				OpLevel:      true, // locking is an op-level effect
				Seed:         opts.Seed,
				Dir:          "/n1",
			})
			if err != nil {
				return 0, err
			}
			return res.WriteBW / 1e9, nil
		}
		nn, err := run(false)
		if err != nil {
			return Table{}, err
		}
		n1, err := run(true)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			string(fs),
			fmt.Sprintf("%.2f", nn),
			fmt.Sprintf("%.2f", n1),
			fmt.Sprintf("%.0f%%", 100*(1-n1/nn)),
		})
	}
	t.Notes = append(t.Notes,
		"the penalty justifies the paper's N-N methodology: N-1 measures the lock manager, not the storage")
	return t, nil
}

// Consistency reproduces the paper's shared-environment methodology
// statement: "To test performance consistency in the shared environment we
// repeated our tests 10 times." It runs the Figure 2a sequential-write
// point at 8 nodes ten times under the contention model and reports the
// relative spread per system — shared production systems (GPFS) vary,
// the dedicated VAST instance barely does.
func Consistency(opts Options) (Table, error) {
	opts = opts.withDefaults()
	reps := 10
	if opts.Quick {
		reps = 4
	}
	// 64 nodes of sequential reads: the scale at which both systems run
	// against their server-side ceilings (the GPFS NSD pool, the VAST
	// gateway), so background contention is visible.
	nodes := 64
	if opts.Quick {
		nodes = 32
	}
	t := Table{
		ID:     "consistency",
		Title:  fmt.Sprintf("Run-to-run consistency over %d repetitions (Lassen, %d nodes, seq read)", reps, nodes),
		Header: []string{"file system", "mean GB/s", "min", "max", "rel spread"},
	}
	fss := []FS{VAST, GPFS}
	var pts []repPoint
	for i, fs := range fss {
		rng := stats.NewRNG(opts.Seed ^ hashString("consistency"+string(fs)))
		pts = appendReps(pts, i, []int{nodes}, reps, rng, contentionSpread(fs), opts.Seed)
	}
	vals, err := runPoints(len(pts), func(i int) (float64, error) {
		pt := pts[i]
		return iorPoint("Lassen", fss[pt.series], pt.x, 44, ior.Analytics, 3000, false, pt.derate, pt.seed, nil)
	})
	if err != nil {
		return Table{}, err
	}
	for i, fs := range fss {
		s := stats.Summarize(vals[i*reps : (i+1)*reps])
		t.Rows = append(t.Rows, []string{
			string(fs),
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.2f", s.Min),
			fmt.Sprintf("%.2f", s.Max),
			fmt.Sprintf("%.1f%%", 100*s.RelSpread()),
		})
	}
	t.Notes = append(t.Notes,
		"repetition 0 is the uncontended run; later repetitions derate shared server capacity pseudo-randomly")
	return t, nil
}
