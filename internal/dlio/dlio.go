// Package dlio re-implements the DLIO benchmark (the paper uses DLIO-1.1.0)
// against the simulated storage: it emulates the I/O behaviour of deep
// learning training — epochs, batches, a bounded prefetch queue fed by a
// pool of I/O worker threads, and compute that the input pipeline tries to
// hide I/O behind (Section VI-A). The two applications the paper evaluates,
// ResNet-50 and Cosmoflow, ship as presets with the configurations from
// Sections VI-B and VI-C.
//
// Every read and every training step is recorded through the trace package
// (the simulator's DFTracer), whose recorder computes the paper's I/O-time
// decomposition online; the application/system throughputs derive from it.
package dlio

import (
	"fmt"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/trace"
)

// Scaling selects how the dataset grows with the node count.
type Scaling int

const (
	// WeakScaling grows the dataset with the node count (the ResNet-50
	// test: 1024 samples per node).
	WeakScaling Scaling = iota
	// StrongScaling divides a fixed dataset across nodes (the Cosmoflow
	// test, "due to the larger size of this application's dataset").
	StrongScaling
)

// Config parameterizes one DLIO run.
type Config struct {
	// Model names the emulated application.
	Model string
	// Samples is the dataset size in samples: per node for WeakScaling,
	// total for StrongScaling.
	Samples int
	// SampleBytes is the size of one sample on storage.
	SampleBytes int64
	// TransferBytes is the read chunk size; samples larger than one
	// transfer are read in consecutive chunks (Cosmoflow reads 256 KB).
	TransferBytes int64
	// SamplesPerFile: ResNet has one JPEG per sample; TFRecord packs many
	// samples per file.
	SamplesPerFile int
	// Epochs is the number of full passes.
	Epochs int
	// BatchSize is samples per training step (1 in both paper runs).
	BatchSize int
	// ReadThreads is the I/O worker pool per process (8 for ResNet-50, 4
	// for Cosmoflow — the paper's "contrasting scenario").
	ReadThreads int
	// PrefetchDepth bounds the sample queue between the workers and the
	// trainer.
	PrefetchDepth int
	// ComputePerBatch is the training-step duration.
	ComputePerBatch sim.Duration
	// ProcsPerNode is the training processes (GPUs) per node.
	ProcsPerNode int
	// Scaling selects weak or strong dataset scaling.
	Scaling Scaling
	// Shuffle reshuffles sample order every epoch (SGD-style).
	Shuffle bool
	// Seed drives the shuffles.
	Seed uint64
	// Dir prefixes dataset file names.
	Dir string

	// CheckpointEveryBatches makes each rank write a model checkpoint
	// synchronously every N training steps (DLIO's checkpoint emulation);
	// 0 disables checkpointing.
	CheckpointEveryBatches int
	// CheckpointBytes is the per-rank model state size written per
	// checkpoint.
	CheckpointBytes int64

	// EpochBarrier synchronizes all ranks at every epoch boundary
	// (MPI-style collective training). I/O workers may still prefetch a
	// bounded number of next-epoch samples, as real input pipelines do.
	EpochBarrier bool
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.Samples <= 0 || c.SampleBytes <= 0 || c.TransferBytes <= 0:
		return fmt.Errorf("dlio: samples, sample size and transfer size must be positive")
	case c.SamplesPerFile <= 0:
		return fmt.Errorf("dlio: samples per file must be positive")
	case c.Epochs <= 0 || c.BatchSize <= 0:
		return fmt.Errorf("dlio: epochs and batch size must be positive")
	case c.ReadThreads <= 0 || c.PrefetchDepth <= 0:
		return fmt.Errorf("dlio: need I/O workers and a prefetch queue")
	case c.ProcsPerNode <= 0:
		return fmt.Errorf("dlio: need at least one process per node")
	case c.ComputePerBatch <= 0:
		return fmt.Errorf("dlio: compute per batch must be positive")
	case c.CheckpointEveryBatches < 0:
		return fmt.Errorf("dlio: negative checkpoint interval")
	case c.CheckpointEveryBatches > 0 && c.CheckpointBytes <= 0:
		return fmt.Errorf("dlio: checkpointing needs a model size")
	}
	return nil
}

// ResNet50 returns the paper's ResNet-50 configuration (Section VI-B): the
// one-batch PyTorch version, 1024 JPEG samples of 150 KB per node (weak
// scaling), one epoch, eight I/O threads. The compute constant reflects a
// V100 training step at batch size one (~10 ms/image), which puts the run
// in the paper's regime of "97% of the overall application runtime is
// GPU computation" and seconds of I/O.
func ResNet50() Config {
	return Config{
		Model:           "resnet50",
		Samples:         1024,
		SampleBytes:     150 * 1000,
		TransferBytes:   150 * 1000,
		SamplesPerFile:  1,
		Epochs:          1,
		BatchSize:       1,
		ReadThreads:     8,
		PrefetchDepth:   16,
		ComputePerBatch: 10 * time.Millisecond,
		ProcsPerNode:    4, // one per Lassen GPU
		Scaling:         WeakScaling,
		Shuffle:         true,
		Seed:            7,
		Dir:             "/dlio/resnet50",
	}
}

// Cosmoflow returns the paper's Cosmoflow configuration (Section VI-C):
// 1024 TFRecord samples (32 MB each, read in constant 256 KB transfers),
// four epochs, batch size one, four I/O threads against eight compute
// threads — the resource-constrained contrast to ResNet-50 — under strong
// scaling.
func Cosmoflow() Config {
	return Config{
		Model:           "cosmoflow",
		Samples:         2048,
		SampleBytes:     32 << 20,
		TransferBytes:   256 << 10,
		SamplesPerFile:  16,
		Epochs:          4,
		BatchSize:       1,
		ReadThreads:     4,
		PrefetchDepth:   8,
		ComputePerBatch: 50 * time.Millisecond,
		ProcsPerNode:    4,
		Scaling:         StrongScaling,
		Shuffle:         true,
		Seed:            11,
		Dir:             "/dlio/cosmoflow",
	}
}

// Result is the outcome of one DLIO run.
type Result struct {
	// Analysis is the trace decomposition (Fig. 4).
	Analysis trace.Analysis
	// AppSamplesPerSec is the throughput the application perceives: samples
	// over the end-to-end training wall time (compute plus the I/O stalls
	// that are not hidden behind it) — Fig. 5a/6a.
	AppSamplesPerSec float64
	// SysSamplesPerSec is the throughput the system sustains while its
	// resources are busy reading input: samples over total I/O time —
	// Fig. 5b/6b.
	SysSamplesPerSec float64
	// Runtime is the end-to-end virtual time of the training phase.
	Runtime sim.Duration
	// Samples is the total samples processed (all ranks × epochs).
	Samples int
}

// String summarizes a result.
func (r Result) String() string {
	return fmt.Sprintf("%s app=%.0f samples/s sys=%.0f samples/s runtime=%v",
		r.Analysis, r.AppSamplesPerSec, r.SysSamplesPerSec, r.Runtime)
}

// Run generates the dataset, drops client caches (the paper trains "while
// using a different set of nodes to read the dataset than the one that
// generated it to avoid Operating System write-back caching"), then trains
// for the configured epochs recording everything through rec. Pass
// trace.NewRecorder() to keep the span log for export; a nil rec records
// into a recorder that keeps only the decomposition.
func Run(env *sim.Env, mounts []fsapi.Client, cfg Config, rec *trace.Recorder) (Result, error) {
	if rec == nil {
		rec = new(trace.Recorder)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(mounts) == 0 {
		return Result{}, fmt.Errorf("dlio: need at least one mount")
	}
	nodes := len(mounts)
	totalSamples := cfg.Samples
	if cfg.Scaling == WeakScaling {
		totalSamples = cfg.Samples * nodes
	}
	ranks := nodes * cfg.ProcsPerNode
	if totalSamples < ranks {
		return Result{}, fmt.Errorf("dlio: %d samples cannot feed %d ranks", totalSamples, ranks)
	}

	// Phase 1: dataset generation (files of SamplesPerFile samples each),
	// spread across the nodes.
	files := (totalSamples + cfg.SamplesPerFile - 1) / cfg.SamplesPerFile
	// The file names are formatted once: every sample read opens one.
	names := make([]string, files)
	for f := range names {
		names[f] = fmt.Sprintf("%s/part-%06d", cfg.Dir, f)
	}
	gen := sim.NewWaitGroup(env)
	for n := 0; n < nodes; n++ {
		n := n
		gen.Go(fmt.Sprintf("dlio-gen%d", n), func(p *sim.Proc) {
			for f := n; f < files; f += nodes {
				bytes := int64(cfg.SamplesPerFile) * cfg.SampleBytes
				mounts[n].StreamWrite(p, names[f], fsapi.Sequential, cfg.TransferBytes, bytes)
			}
		})
	}

	var trainStart, trainEnd sim.Time
	env.Go("dlio-main", func(p *sim.Proc) {
		gen.Wait(p)
		for _, m := range mounts {
			m.DropCaches()
		}
		trainStart = p.Now()
		var epochBarrier *sim.Barrier
		if cfg.EpochBarrier {
			epochBarrier = sim.NewBarrier(env, "dlio-epoch", ranks)
		}
		tg := sim.NewWaitGroup(env)
		for r := 0; r < ranks; r++ {
			r := r
			cl := mounts[r/cfg.ProcsPerNode]
			tg.Go(fmt.Sprintf("dlio-rank%d", r), func(p *sim.Proc) {
				runRank(p, cl, cfg, names, rec, r, ranks, totalSamples, epochBarrier)
				if p.Now() > trainEnd {
					trainEnd = p.Now()
				}
			})
		}
		tg.Wait(p)
	})
	env.Run()

	a := rec.Analysis()
	res := Result{
		Analysis: a,
		Runtime:  trainEnd.Sub(trainStart),
		Samples:  totalSamples * cfg.Epochs,
	}
	if res.Runtime > 0 {
		res.AppSamplesPerSec = float64(res.Samples) / res.Runtime.Seconds()
	}
	if a.TotalIO > 0 {
		res.SysSamplesPerSec = float64(res.Samples) / a.TotalIO.Seconds()
	}
	return res, nil
}

// runRank runs one training process: a pool of I/O workers prefetching the
// rank's shard (sample s is in file names[s/SamplesPerFile]) into a bounded
// queue, and a trainer consuming batches.
func runRank(p *sim.Proc, cl fsapi.Client, cfg Config, names []string, rec *trace.Recorder, rank, ranks, totalSamples int, epochBarrier *sim.Barrier) {
	env := p.Env()
	rng := stats.NewRNG(cfg.Seed + uint64(rank)*0x9e3779b9)

	queue := sim.NewQueue(env, fmt.Sprintf("dlio-q%d", rank), cfg.PrefetchDepth)

	// The rank's shard: a contiguous range of sample indices.
	per := totalSamples / ranks
	shardStart := rank * per
	shardLen := per
	if rank == ranks-1 {
		shardLen = totalSamples - shardStart
	}

	// Work list: all epochs' sample indices, shuffled per epoch.
	var work []int
	for e := 0; e < cfg.Epochs; e++ {
		order := make([]int, shardLen)
		for i := range order {
			order[i] = shardStart + i
		}
		if cfg.Shuffle {
			perm := rng.Perm(shardLen)
			for i, j := range perm {
				order[i] = shardStart + j
			}
		}
		work = append(work, order...)
	}

	// I/O worker pool.
	next := 0
	workers := sim.NewWaitGroup(env)
	for w := 0; w < cfg.ReadThreads; w++ {
		workers.Go(fmt.Sprintf("dlio-r%d-io%d", rank, w), func(p *sim.Proc) {
			for {
				if next >= len(work) {
					return
				}
				sample := work[next]
				next++
				start := p.Now()
				rec.Begin(rank, trace.Read, start)
				readSample(p, cl, cfg, names[sample/cfg.SamplesPerFile], sample)
				rec.Record(rank, trace.Read, start, p.Now(), cfg.SampleBytes)
				queue.Put(p, sample)
			}
		})
	}
	env.Go(fmt.Sprintf("dlio-r%d-closer", rank), func(p *sim.Proc) {
		workers.Wait(p)
		queue.Close()
	})

	// Trainer: consume batches, compute, checkpoint on the configured
	// cadence (a synchronous stall, like DLIO's checkpoint emulation) and
	// synchronize with the other ranks at epoch boundaries when asked.
	consumed := 0
	batches := 0
	inEpoch := 0
	for {
		got := 0
		for got < cfg.BatchSize {
			if _, ok := queue.Get(p); !ok {
				break
			}
			got++
		}
		if got == 0 {
			break
		}
		start := p.Now()
		rec.Begin(rank, trace.Compute, start)
		p.Sleep(cfg.ComputePerBatch)
		rec.Record(rank, trace.Compute, start, p.Now(), 0)
		consumed += got
		batches++
		if cfg.CheckpointEveryBatches > 0 && batches%cfg.CheckpointEveryBatches == 0 {
			ckStart := p.Now()
			rec.Begin(rank, trace.Write, ckStart)
			path := fmt.Sprintf("%s/ckpt/rank%05d.step%06d", cfg.Dir, rank, batches)
			cl.StreamWrite(p, path, fsapi.Sequential, 1<<20, cfg.CheckpointBytes)
			rec.Record(rank, trace.Write, ckStart, p.Now(), cfg.CheckpointBytes)
		}
		inEpoch += got
		if epochBarrier != nil && inEpoch >= shardLen {
			inEpoch -= shardLen
			epochBarrier.Wait(p)
		}
		if consumed >= len(work) {
			break
		}
	}
}

// readSample reads one sample (possibly spanning multiple transfers) from
// its dataset file.
func readSample(p *sim.Proc, cl fsapi.Client, cfg Config, file string, sample int) {
	offInFile := int64(sample%cfg.SamplesPerFile) * cfg.SampleBytes
	f := cl.Open(p, file, false)
	for done := int64(0); done < cfg.SampleBytes; done += cfg.TransferBytes {
		n := cfg.TransferBytes
		if rest := cfg.SampleBytes - done; rest < n {
			n = rest
		}
		f.ReadAt(p, offInFile+done, n)
	}
	f.Close(p)
}
