// Command dliobench runs the simulated DLIO benchmark (ResNet-50,
// Cosmoflow or a custom model) on Lassen against VAST or GPFS and prints
// the paper's I/O-time decomposition. Optionally writes the DFTracer-style
// Chrome trace for cmd/tracestat or chrome://tracing.
//
// Examples:
//
//	dliobench -model resnet50 -fs vast -nodes 8
//	dliobench -model cosmoflow -fs gpfs -nodes 4 -trace cosmo.json
//	dliobench -model custom -samples 512 -sample-size 1m -threads 4
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	storagesim "storagesim"
	"storagesim/internal/dlio"
	"storagesim/internal/experiments"
	"storagesim/internal/trace"
	"storagesim/internal/units"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dliobench:", err)
		os.Exit(1)
	}
}

// run parses the flags, runs the model and prints its analysis. The
// Chrome trace, when asked for, is written before anything is printed, so
// a failed write leaves stdout empty.
func run() error {
	model := flag.String("model", "resnet50", "resnet50, cosmoflow or custom")
	fs := flag.String("fs", "vast", "vast or gpfs")
	nodes := flag.Int("nodes", 1, "compute nodes")
	traceOut := flag.String("trace", "", "write Chrome trace JSON to this file")
	seed := flag.Uint64("seed", 7, "seed for sample shuffles")

	samples := flag.Int("samples", 1024, "custom: dataset samples")
	sampleSize := flag.String("sample-size", "150KB", "custom: sample size")
	xfer := flag.String("xfer", "1m", "custom: transfer size")
	epochs := flag.Int("epochs", 1, "custom: epochs")
	threads := flag.Int("threads", 8, "custom: I/O worker threads per process")
	compute := flag.Duration("compute", 10*time.Millisecond, "custom: compute per batch")
	ckptEvery := flag.Int("ckpt-every", 0, "write a checkpoint every N batches (0 = off)")
	ckptSize := flag.String("ckpt-size", "512MB", "checkpoint size per rank")
	flag.Parse()

	var cfg storagesim.DLIOConfig
	switch *model {
	case "resnet50":
		cfg = storagesim.ResNet50Config()
	case "cosmoflow":
		cfg = storagesim.CosmoflowConfig()
	case "custom":
		sb, err := units.ParseBytes(*sampleSize)
		if err != nil {
			return err
		}
		xb, err := units.ParseBytes(*xfer)
		if err != nil {
			return err
		}
		cfg = storagesim.DLIOConfig{
			Model: "custom", Samples: *samples, SampleBytes: int64(sb),
			TransferBytes: int64(xb), SamplesPerFile: 1, Epochs: *epochs,
			BatchSize: 1, ReadThreads: *threads, PrefetchDepth: 2 * *threads,
			ComputePerBatch: *compute, ProcsPerNode: 4,
			Scaling: dlio.WeakScaling, Shuffle: true, Dir: "/dlio/custom",
		}
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	cfg.Seed = *seed
	if *ckptEvery > 0 {
		cb, err := units.ParseBytes(*ckptSize)
		if err != nil {
			return err
		}
		cfg.CheckpointEveryBatches = *ckptEvery
		cfg.CheckpointBytes = int64(cb)
	}

	res, rec, err := experiments.RunDLIOOnce(experiments.FS(*fs), *nodes, cfg)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		err = trace.WriteChromeTrace(f, rec.Spans())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	a := res.Analysis
	fmt.Printf("model=%s fs=%s nodes=%d ranks=%d\n", cfg.Model, *fs, *nodes, a.Ranks)
	fmt.Printf("  total I/O:        %10.3fs\n", a.TotalIO.Seconds())
	fmt.Printf("  overlapping:      %10.3fs (%.1f%% hidden)\n", a.OverlapIO.Seconds(), 100*a.HiddenFraction())
	fmt.Printf("  non-overlapping:  %10.3fs\n", a.NonOverlapIO.Seconds())
	fmt.Printf("  compute:          %10.3fs\n", a.ComputeTime.Seconds())
	fmt.Printf("  bytes read:       %10s\n", units.Bytes(a.Bytes))
	fmt.Printf("  app throughput:   %10.1f samples/s\n", res.AppSamplesPerSec)
	fmt.Printf("  sys throughput:   %10.1f samples/s\n", res.SysSamplesPerSec)
	fmt.Printf("  training runtime: %10.3fs (virtual)\n", res.Runtime.Seconds())

	if *traceOut != "" {
		fmt.Printf("  trace: %s (%d spans)\n", *traceOut, rec.Len())
	}
	return nil
}
