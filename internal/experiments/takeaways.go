package experiments

import (
	"fmt"

	"storagesim/internal/ior"
)

// TakeawayRDMAvsTCP quantifies the system-administrator takeaway of
// Section VII: per-node write and read bandwidth of VAST behind the
// NFS/RDMA deployment (Wombat) versus the NFS/TCP deployment (Lassen),
// measured at the two-node scale where neither backend saturates.
func TakeawayRDMAvsTCP(opts Options) (Table, error) {
	opts = opts.withDefaults()
	// One node: the scale at which the paper quotes per-node deployment
	// bandwidths (neither backend pool is shared with other nodes yet).
	// Write, then read, behind TCP, then behind RDMA.
	bw, err := perNodeGBs([]iorRun{
		{"Lassen", VAST, 1, 44, ior.Scientific}, {"Lassen", VAST, 1, 44, ior.Analytics},
		{"Wombat", VAST, 1, 44, ior.Scientific}, {"Wombat", VAST, 1, 44, ior.Analytics},
	}, opts.Seed)
	if err != nil {
		return Table{}, err
	}
	row := func(label string, w, r float64) []string {
		return []string{label, fmt.Sprintf("%.2f", w), fmt.Sprintf("%.2f", r)}
	}
	t := Table{
		ID:     "takeaway-rdma-vs-tcp",
		Title:  "VAST per-node bandwidth by deployment (GB/s)",
		Header: []string{"deployment", "write GB/s per node", "read GB/s per node"},
		Rows: [][]string{
			row("NFS/TCP (Lassen)", bw[0], bw[1]),
			row("NFS/RDMA+nconnect+multipath (Wombat)", bw[2], bw[3]),
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("RDMA/TCP ratio: write %.1fx, read %.1fx (paper: up to 8x, ~8 GB/s vs ~1 GB/s per node)",
			bw[2]/bw[0], bw[3]/bw[1]))
	return t, nil
}

// TakeawaySeqVsRandom quantifies the I/O-researcher takeaway: GPFS loses
// ~90% of its per-node read bandwidth going sequential → random while
// RDMA-deployed VAST stays consistent. Following the paper's framing, each
// per-node figure is taken at its characteristic scale: GPFS sequential at
// a modest node count (its unsaturated ~14.5 GB/s/node), GPFS random at
// the full 128-node scale where the seek-bound pool pins every node to
// ~1.4 GB/s; VAST on the Wombat RDMA deployment.
func TakeawaySeqVsRandom(opts Options) (Table, error) {
	opts = opts.withDefaults()
	seqNodes, randNodes := 8, 128
	if opts.Quick {
		seqNodes, randNodes = 4, 64
	}
	bw, err := perNodeGBs([]iorRun{
		{"Lassen", GPFS, seqNodes, 44, ior.Analytics}, {"Lassen", GPFS, randNodes, 44, ior.ML},
		{"Wombat", VAST, 2, 48, ior.Analytics}, {"Wombat", VAST, 2, 48, ior.ML},
	}, opts.Seed)
	if err != nil {
		return Table{}, err
	}
	row := func(label string, seq, rand float64) []string {
		return []string{label, fmt.Sprintf("%.2f", seq), fmt.Sprintf("%.2f", rand),
			fmt.Sprintf("%.0f%%", 100*(1-rand/seq))}
	}
	t := Table{
		ID:     "takeaway-seq-vs-random",
		Title:  "Per-node read bandwidth: sequential vs random (GB/s)",
		Header: []string{"file system", "seq GB/s per node", "random GB/s per node", "drop"},
		Rows: [][]string{
			row("GPFS (HDD, Lassen)", bw[0], bw[1]),
			row("VAST (SCM/QLC, RDMA, Wombat)", bw[2], bw[3]),
		},
		Notes: []string{"paper: GPFS 14.5 -> 1.4 GB/s (-90%); VAST 9 -> 7 GB/s (consistent)"},
	}
	return t, nil
}

// iorRun is one uncontended IOR run of a takeaway.
type iorRun struct {
	machine    string
	fs         FS
	nodes, ppn int
	wl         ior.Workload
}

// perNodeGBs runs a takeaway's IOR runs (3000 one-MiB segments per rank)
// in one runPoints call and returns each run's GB/s per node.
func perNodeGBs(runs []iorRun, seed uint64) ([]float64, error) {
	return runPoints(len(runs), func(i int) (float64, error) {
		r := runs[i]
		bw, err := iorPoint(r.machine, r.fs, r.nodes, r.ppn, r.wl, 3000, false, 1, seed, nil)
		return bw / float64(r.nodes), err
	})
}
