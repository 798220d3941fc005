package experiments

import (
	"fmt"

	"storagesim/internal/dlio"
	"storagesim/internal/ior"
	"storagesim/internal/workloads"
)

// WorkloadSuitability produces the matrix the paper's introduction asks
// for — "a better mapping between specific workloads and file systems":
// every Section III-B application preset runs on Lassen against VAST
// (NFS/TCP) and GPFS, and the table reports the headline metric plus the
// winner. This is the application-user takeaway, generalized beyond
// ResNet-50.
func WorkloadSuitability(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const nodes, ppn = 4, 16
	t := Table{
		ID:     "workload-suitability",
		Title:  fmt.Sprintf("Workload suitability on Lassen (%d nodes): VAST (NFS/TCP) vs GPFS", nodes),
		Header: []string{"application", "metric", "vast", "gpfs", "suited to VAST?"},
	}
	cat := workloads.Catalogue(ppn)
	// Fixed report order (map iteration is random).
	order := []string{"cm1", "hacc", "bdcats", "kmeans", "oocsort", "resnet50", "cosmoflow", "cosmic-tagger"}
	for _, name := range order {
		w := cat[name]
		var row []string
		var err error
		switch w.Kind {
		case workloads.IORKind:
			row, err = suitabilityIOR(w, nodes, opts)
		case workloads.DLIOKind:
			if opts.Quick && name == "cosmoflow" {
				continue // the heavy sweep; covered by Fig. 6
			}
			row, err = suitabilityDLIO(w, nodes, opts)
		}
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"\"suited\" = VAST delivers >= 80% of GPFS on the workload's headline metric,",
		"matching the paper's takeaway that VAST viably serves low-I/O workloads and relieves GPFS contention")
	return t, nil
}

// suitabilityIOR runs one IOR-kind preset on both systems.
func suitabilityIOR(w workloads.Workload, nodes int, opts Options) ([]string, error) {
	cfg := w.IOR
	if opts.Quick && cfg.Segments > 64 {
		cfg.Segments = 64
	}
	cfg.Seed = opts.Seed
	run := func(fs FS) (float64, error) {
		res, err := RunIOROnce("Lassen", fs, nodes, cfg)
		if err != nil {
			return 0, err
		}
		if cfg.Workload == ior.Scientific {
			return res.WriteBW / 1e9, nil
		}
		return res.ReadBW / 1e9, nil
	}
	v, err := run(VAST)
	if err != nil {
		return nil, err
	}
	g, err := run(GPFS)
	if err != nil {
		return nil, err
	}
	metric := "write GB/s"
	if cfg.Workload != ior.Scientific {
		metric = "read GB/s"
	}
	return []string{
		w.Name, metric,
		fmt.Sprintf("%.2f", v), fmt.Sprintf("%.2f", g), verdict(v, g),
	}, nil
}

// suitabilityDLIO runs one DLIO-kind preset on both systems and compares
// the application-perceived throughput (what the user cares about).
func suitabilityDLIO(w workloads.Workload, nodes int, opts Options) ([]string, error) {
	cfg := w.DLIO
	if opts.Quick {
		cfg.Samples /= 2
		if cfg.Samples < nodes*cfg.ProcsPerNode {
			cfg.Samples = nodes * cfg.ProcsPerNode
		}
	}
	cfg.Seed = opts.Seed
	run := func(fs FS) (float64, error) {
		tb, err := buildTestbed("Lassen", fs, nodes, nil)
		if err != nil {
			return 0, err
		}
		res, err := dlio.Run(tb.env, tb.mounts, cfg, nil)
		if err != nil {
			return 0, err
		}
		return res.AppSamplesPerSec, nil
	}
	v, err := run(VAST)
	if err != nil {
		return nil, err
	}
	g, err := run(GPFS)
	if err != nil {
		return nil, err
	}
	return []string{
		w.Name, "app samples/s",
		fmt.Sprintf("%.1f", v), fmt.Sprintf("%.1f", g), verdict(v, g),
	}, nil
}

// verdict applies the suitability rule.
func verdict(vast, gpfs float64) string {
	if gpfs <= 0 {
		return "n/a"
	}
	if vast >= 0.8*gpfs {
		return "yes"
	}
	return fmt.Sprintf("no (%.0f%% of GPFS)", 100*vast/gpfs)
}
