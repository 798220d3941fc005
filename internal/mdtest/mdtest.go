// Package mdtest implements a metadata-rate benchmark in the spirit of
// LLNL's MDTest (which the paper's related work uses alongside IOR): each
// rank creates a directory's worth of zero-length files, then re-opens
// them, and the harness reports creates/sec and opens/sec. Metadata costs
// come from each storage model's open path — the SCM metadata lookup on
// VAST's CNodes, the MDS round trip on Lustre, the NSD RPC on GPFS — so
// the benchmark ranks the systems by their metadata latency under
// concurrency.
//
// Scope note: the simulated open path charges latency but not a metadata
// *bandwidth* ceiling, so rates scale with rank concurrency until the
// harness's own service bound; compare systems at equal concurrency.
package mdtest

import (
	"fmt"
	"math"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
)

// Config parameterizes a run.
type Config struct {
	// FilesPerRank is the number of files each rank creates (MDTest -n).
	FilesPerRank int
	// ProcsPerNode is the ranks per node.
	ProcsPerNode int
	// Dir prefixes the tree.
	Dir string
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	if c.FilesPerRank <= 0 || c.ProcsPerNode <= 0 {
		return fmt.Errorf("mdtest: files per rank and procs per node must be positive")
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	// CreatesPerSec, OpensPerSec and RemovesPerSec are aggregate metadata
	// rates for the three MDTest phases. A phase that takes no virtual time
	// (an open path that charges no latency, as node-local NVMe's) is
	// unbounded by the model: its rate is +Inf, never 0.
	CreatesPerSec float64
	OpensPerSec   float64
	RemovesPerSec float64
	// CreateTime, OpenTime and RemoveTime are the slowest rank's phase
	// durations.
	CreateTime sim.Duration
	OpenTime   sim.Duration
	RemoveTime sim.Duration
	// Ranks is nodes × procs per node.
	Ranks int
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("ranks=%d creates/s=%.0f opens/s=%.0f removes/s=%.0f",
		r.Ranks, r.CreatesPerSec, r.OpensPerSec, r.RemovesPerSec)
}

// Run executes the benchmark on the per-node mounts.
func Run(env *sim.Env, mounts []fsapi.Client, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(mounts) == 0 {
		return Result{}, fmt.Errorf("mdtest: need at least one mount")
	}
	ranks := len(mounts) * cfg.ProcsPerNode
	total := ranks * cfg.FilesPerRank
	res := Result{Ranks: ranks}

	name := func(rank, i int) string {
		return fmt.Sprintf("%s/rank%05d/file.%06d", cfg.Dir, rank, i)
	}

	// Phase 1: create.
	var createEnd sim.Time
	wg := sim.NewWaitGroup(env)
	for r := 0; r < ranks; r++ {
		r := r
		cl := mounts[r/cfg.ProcsPerNode]
		wg.Go(fmt.Sprintf("md-c%d", r), func(p *sim.Proc) {
			for i := 0; i < cfg.FilesPerRank; i++ {
				f := cl.Open(p, name(r, i), true)
				f.Close(p)
			}
			if p.Now() > createEnd {
				createEnd = p.Now()
			}
		})
	}
	// Phase 2: re-open every file (MDTest's stat/open pass), reading the
	// neighbouring rank's tree so client-side metadata caches do not
	// trivially hit. Phase 3: remove everything.
	var openStart, openEnd, removeStart, removeEnd sim.Time
	env.Go("md-coordinator", func(p *sim.Proc) {
		wg.Wait(p)
		openStart = p.Now()
		og := sim.NewWaitGroup(env)
		for r := 0; r < ranks; r++ {
			r := r
			cl := mounts[r/cfg.ProcsPerNode]
			og.Go(fmt.Sprintf("md-o%d", r), func(p *sim.Proc) {
				peer := (r + cfg.ProcsPerNode) % ranks
				for i := 0; i < cfg.FilesPerRank; i++ {
					f := cl.Open(p, name(peer, i), false)
					f.Close(p)
				}
				if p.Now() > openEnd {
					openEnd = p.Now()
				}
			})
		}
		og.Wait(p)
		removeStart = p.Now()
		rg := sim.NewWaitGroup(env)
		for r := 0; r < ranks; r++ {
			r := r
			cl := mounts[r/cfg.ProcsPerNode]
			rg.Go(fmt.Sprintf("md-r%d", r), func(p *sim.Proc) {
				for i := 0; i < cfg.FilesPerRank; i++ {
					cl.Remove(p, name(r, i))
				}
				if p.Now() > removeEnd {
					removeEnd = p.Now()
				}
			})
		}
		rg.Wait(p)
	})
	env.Run()

	res.CreateTime = sim.Duration(createEnd)
	res.CreatesPerSec = rate(total, res.CreateTime)
	res.OpenTime = openEnd.Sub(openStart)
	res.OpensPerSec = rate(total, res.OpenTime)
	res.RemoveTime = removeEnd.Sub(removeStart)
	res.RemovesPerSec = rate(total, res.RemoveTime)
	return res, nil
}

// rate is ops per second over a phase of duration d; +Inf when the phase
// took no virtual time.
func rate(ops int, d sim.Duration) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return float64(ops) / d.Seconds()
}
