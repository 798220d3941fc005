// Package replay projects a recorded DLIO trace onto a different storage
// deployment: it re-executes each rank's compute spans at their recorded
// durations and re-issues each read's bytes against the target file
// system, preserving the trace's dependency structure — a read must
// complete before any compute step that originally started after it ended.
// The result answers the planning question behind the paper's workload/
// file-system mapping: "this job ran on GPFS; what happens on VAST?"
//
// Semantics (conservative-dependency replay, in the tradition of
// Darshan/DFTracer replay tools):
//
//   - Compute spans replay as fixed-duration work in recorded order.
//   - Read spans are dispatched asynchronously when their rank reaches the
//     point in the recorded order where they originally started, and take
//     however long the target system needs.
//   - A compute span waits for every read that originally finished before
//     the compute began (those bytes were its inputs).
//
// Overlap therefore *emerges* from the target system's speed: a faster
// target hides more of the replayed I/O, a slower one stalls the computes
// that depend on it.
package replay

import (
	"fmt"
	"sort"

	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
)

// Config parameterizes a replay.
type Config struct {
	// TransferBytes is the I/O size used to re-issue reads (the trace
	// records bytes, not op sizes).
	TransferBytes int64
	// Dir prefixes the synthetic dataset the reads hit.
	Dir string
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TransferBytes <= 0 {
		out.TransferBytes = 1 << 20
	}
	if out.Dir == "" {
		out.Dir = "/replay"
	}
	return out
}

// Result is the outcome of a replay.
type Result struct {
	// Analysis is the overlap decomposition of the replayed run.
	Analysis trace.Analysis
	// Runtime is the replayed end-to-end time.
	Runtime sim.Duration
	// OriginalRuntime is the recorded trace's span (first start to last
	// end), for comparison.
	OriginalRuntime sim.Duration
	// Speedup is OriginalRuntime / Runtime (>1 = target is faster).
	Speedup float64
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("replayed %v (original %v, speedup %.2fx): %s",
		r.Runtime, r.OriginalRuntime, r.Speedup, r.Analysis)
}

// Run replays spans against the mounts. Ranks map onto mounts round-robin
// (rank r runs on mounts[r % len(mounts)]). The replayed spans are
// recorded into rec.
func Run(env *sim.Env, mounts []fsapi.Client, spans []trace.Span, cfg Config, rec *trace.Recorder) (Result, error) {
	if len(mounts) == 0 {
		return Result{}, fmt.Errorf("replay: need at least one mount")
	}
	if len(spans) == 0 {
		return Result{}, fmt.Errorf("replay: empty trace")
	}
	cfg = cfg.withDefaults()

	perRank := map[int][]trace.Span{}
	var origStart, origEnd sim.Time
	origStart = spans[0].Start
	for _, s := range spans {
		perRank[s.Rank] = append(perRank[s.Rank], s)
		if s.Start < origStart {
			origStart = s.Start
		}
		if s.End > origEnd {
			origEnd = s.End
		}
	}
	ranks := make([]int, 0, len(perRank))
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	// Synthetic dataset: one file per rank, sized to its largest read.
	var maxBytes int64 = 1
	for _, s := range spans {
		if s.Kind != trace.Compute && s.Bytes > maxBytes {
			maxBytes = s.Bytes
		}
	}

	var end sim.Time
	wg := sim.NewWaitGroup(env)
	for _, r := range ranks {
		r := r
		cl := mounts[r%len(mounts)]
		wg.Go(fmt.Sprintf("replay-r%d", r), func(p *sim.Proc) {
			replayRank(p, cl, cfg, rec, r, perRank[r], maxBytes)
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	env.Run()

	res := Result{
		Analysis:        rec.Analysis(),
		Runtime:         sim.Duration(end),
		OriginalRuntime: origEnd.Sub(origStart),
	}
	if res.Runtime > 0 {
		res.Speedup = res.OriginalRuntime.Seconds() / res.Runtime.Seconds()
	}
	return res, nil
}

// replayRank re-executes one rank's spans on two lanes, the way a DLIO
// data loader runs: an I/O lane re-issues the recorded reads back to back
// (the prefetch pipeline), and the compute lane replays the recorded steps
// with input barriers — a compute waits for every read that originally
// finished before it began.
func replayRank(p *sim.Proc, cl fsapi.Client, cfg Config, rec *trace.Recorder, rank int, spans []trace.Span, fileBytes int64) {
	env := p.Env()
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].Start != spans[b].Start {
			return spans[a].Start < spans[b].Start
		}
		return spans[a].End < spans[b].End
	})
	path := fmt.Sprintf("%s/rank%05d.data", cfg.Dir, rank)
	cl.StreamWrite(p, path, fsapi.Sequential, cfg.TransferBytes, fileBytes)
	cl.DropCaches()

	type ioItem struct {
		span trace.Span
		done *sim.Event
	}
	var ios []ioItem
	var computes []trace.Span
	for _, s := range spans {
		if s.Kind == trace.Compute {
			computes = append(computes, s)
		} else {
			ios = append(ios, ioItem{span: s, done: sim.NewEvent(env)})
		}
	}

	// I/O lane: the prefetch pipeline, issuing recorded transfers in order
	// as fast as the target system serves them.
	lanes := sim.NewWaitGroup(env)
	lanes.Go(fmt.Sprintf("replay-r%d-io", rank), func(p *sim.Proc) {
		for _, it := range ios {
			start := p.Now()
			rec.Begin(rank, it.span.Kind, start)
			if it.span.Kind == trace.Write {
				cl.StreamWrite(p, path, fsapi.Sequential, cfg.TransferBytes, it.span.Bytes)
			} else {
				cl.StreamRead(p, path, fsapi.Sequential, cfg.TransferBytes, it.span.Bytes)
			}
			rec.Record(rank, it.span.Kind, start, p.Now(), it.span.Bytes)
			it.done.Fire()
		}
	})

	// Compute lane: recorded steps with conservative input dependencies.
	lanes.Go(fmt.Sprintf("replay-r%d-compute", rank), func(p *sim.Proc) {
		next := 0
		for _, c := range computes {
			for next < len(ios) && ios[next].span.End <= c.Start {
				ios[next].done.Wait(p)
				next++
			}
			start := p.Now()
			rec.Begin(rank, trace.Compute, start)
			p.Sleep(c.Duration())
			rec.Record(rank, trace.Compute, start, p.Now(), 0)
		}
	})
	lanes.Wait(p)
}
