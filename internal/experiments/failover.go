package experiments

import (
	"fmt"
	"time"

	"storagesim/internal/ior"
	"storagesim/internal/sim"
	"storagesim/internal/vast"
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
	baseline := 0.0
	for _, failures := range []int{0, 1, 2, 4} {
		bw, healthy, err := failoverPoint(failures, opts)
		if err != nil {
			return Table{}, err
		}
		if failures == 0 {
			baseline = bw
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(failures), fmt.Sprint(healthy),
			fmt.Sprintf("%.2f", bw), fmt.Sprintf("%.0f%%", 100*bw/baseline),
		})
	}
	t.Notes = append(t.Notes,
		"stateless CNodes: failures cost capacity proportionally; no client ever errors")
	return t, nil
}

// failoverPoint runs the op-level write workload and fails `failures`
// CNodes shortly after the run starts.
func failoverPoint(failures int, opts Options) (bw float64, healthy int, err error) {
	tb, err := buildTestbed("Wombat", VAST, 2, nil)
	if err != nil {
		return 0, 0, err
	}
	sys, ok := tb.sys.(*vast.System)
	if !ok {
		return 0, 0, fmt.Errorf("experiments: failover study needs a VAST testbed")
	}
	if failures > 0 {
		tb.env.Go("chaos", func(p *sim.Proc) {
			p.Sleep(10 * time.Millisecond)
			for i := 0; i < failures; i++ {
				sys.FailCNode(i)
			}
		})
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
	return res.WriteBW / 1e9, sys.HealthyCNodes(), nil
}
