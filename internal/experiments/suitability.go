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
	t := Table{
		ID:     "workload-suitability",
		Title:  fmt.Sprintf("Workload suitability on Lassen (%d nodes): VAST (NFS/TCP) vs GPFS", suitabilityNodes),
		Header: []string{"application", "metric", "vast", "gpfs", "suited to VAST?"},
	}
	cat := workloads.Catalogue(16) // ranks per node
	// Fixed report order (map iteration is random).
	var ws []workloads.Workload
	for _, name := range []string{"cm1", "hacc", "bdcats", "kmeans", "oocsort", "resnet50", "cosmoflow", "cosmic-tagger"} {
		if opts.Quick && name == "cosmoflow" {
			continue // the heavy sweep; covered by Fig. 6
		}
		ws = append(ws, cat[name])
	}
	// VAST, then GPFS, per workload.
	fss := []FS{VAST, GPFS}
	vals, err := runPoints(len(ws)*len(fss), func(i int) (float64, error) {
		return suitabilityPoint(ws[i/len(fss)], fss[i%len(fss)], opts)
	})
	if err != nil {
		return Table{}, err
	}
	for k, w := range ws {
		v, g := vals[2*k], vals[2*k+1]
		metric, cell := "app samples/s", "%.1f"
		if w.Kind == workloads.IORKind {
			metric, cell = "read GB/s", "%.2f"
			if w.IOR.Workload == ior.Scientific {
				metric = "write GB/s"
			}
		}
		t.Rows = append(t.Rows, []string{w.Name, metric, fmt.Sprintf(cell, v), fmt.Sprintf(cell, g), verdict(v, g)})
	}
	t.Notes = append(t.Notes,
		"\"suited\" = VAST delivers >= 80% of GPFS on the workload's headline metric,",
		"matching the paper's takeaway that VAST viably serves low-I/O workloads and relieves GPFS contention")
	return t, nil
}

// suitabilityNodes is the Lassen node count of the suitability matrix.
const suitabilityNodes = 4

// suitabilityPoint runs one preset on fs and returns its headline metric:
// the GB/s of the phase an IOR preset measures, or a DLIO preset's
// application-perceived samples/s (what the user cares about).
func suitabilityPoint(w workloads.Workload, fs FS, opts Options) (float64, error) {
	tb, err := buildTestbed("Lassen", fs, suitabilityNodes, nil)
	if err != nil {
		return 0, err
	}
	if w.Kind == workloads.DLIOKind {
		cfg := w.DLIO
		if opts.Quick {
			cfg.Samples = max(cfg.Samples/2, suitabilityNodes*cfg.ProcsPerNode)
		}
		cfg.Seed = opts.Seed
		res, err := dlio.Run(tb.env, tb.mounts, cfg, nil)
		return res.AppSamplesPerSec, err
	}
	cfg := w.IOR
	if opts.Quick {
		cfg.Segments = min(cfg.Segments, 64)
	}
	cfg.Seed = opts.Seed
	res, err := ior.Run(tb.env, tb.mounts, cfg)
	if cfg.Workload == ior.Scientific {
		return res.WriteBW / 1e9, err
	}
	return res.ReadBW / 1e9, err
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
