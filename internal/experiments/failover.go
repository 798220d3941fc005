package experiments

import (
	"fmt"
	"time"

	"storagesim/internal/ior"
)

// FailoverStudy exercises the paper's "stateless containers" claim
// (Section III-A.2): because VAST's CNodes hold no state, losing servers
// costs only their share of capacity — clients fail over and keep running.
// The study runs the Wombat write workload with 0, 1, 2 and 4 of the 8
// CNodes failed mid-run and reports the delivered bandwidth.
func FailoverStudy(opts Options) (Table, error) {
	opts = opts.withDefaults()
	t := Table{
		ID:     "failover-study",
		Title:  "VAST degraded-mode writes (Wombat, 2 nodes, CNodes failed mid-run)",
		Header: []string{"failed CNodes", "healthy", "write GB/s", "vs healthy"},
	}
	failures := []int{0, 1, 2, 4}
	type run struct {
		bw      float64
		healthy int
	}
	runs, err := runPoints(len(failures), func(i int) (run, error) {
		bw, healthy, err := failoverPoint(failures[i], opts)
		return run{bw, healthy}, err
	})
	if err != nil {
		return Table{}, err
	}
	for i, r := range runs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(failures[i]), fmt.Sprint(r.healthy),
			fmt.Sprintf("%.2f", r.bw), fmt.Sprintf("%.0f%%", 100*r.bw/runs[0].bw),
		})
	}
	t.Notes = append(t.Notes,
		"stateless CNodes: failures cost capacity proportionally; no client ever errors")
	return t, nil
}

// failoverPoint runs the op-level write workload and fails `failures`
// CNodes 10 ms into the run, as the degraded sweep does. healthy is the
// deployment's server count less the failures delivered.
func failoverPoint(failures int, opts Options) (bw float64, healthy int, err error) {
	tb, err := buildTestbed("Wombat", VAST, 2, nil)
	if err != nil {
		return 0, 0, err
	}
	inj, err := tb.inject(string(VAST), tb.sys, serverFailures(failures, 10*time.Millisecond))
	if err != nil {
		return 0, 0, err
	}
	segments := 128
	if opts.Quick {
		segments = 48
	}
	res, err := ior.Run(tb.env, tb.mounts, ior.Config{
		Workload:     ior.Scientific,
		BlockSize:    1 << 20,
		TransferSize: 1 << 20,
		Segments:     segments,
		ProcsPerNode: 16,
		OpLevel:      true, // ops re-resolve their path, so failover is live
		Seed:         opts.Seed,
		Dir:          "/ha",
	})
	if err != nil {
		return 0, 0, err
	}
	return res.WriteBW / 1e9, tb.sys.FaultServers() - len(inj.Applied()), nil
}
