package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// The measuring side of a workload process. A run is a closed loop of one:
// an untimed warm-up at a tenth of the size (pools, lazy set-up), then
// timed reps, each started only after the previous one ended, until the
// run's seconds are used up (at least one rep). Each rep builds a fresh
// testbed untimed, then times its operations one at a time, with the
// reference kernel (hostref.go) run before the first and after each one.

// costs is a snapshot of the process's resource counters.
type costs struct {
	at       time.Time
	cpu      float64 // user+sys CPU seconds (getrusage)
	allocB   uint64
	allocObj uint64
	gcCPU    float64
	gcCycles uint64
	sched    *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readCosts() costs {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	c := costs{
		at:       time.Now(),
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocB:   s[0].Value.Uint64(),
		allocObj: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
	}
	h := s[4].Value.Float64Histogram()
	c.sched = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	return c
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// repCost is what the timed operations of a rep consumed. adjWall and
// adjCPU are wall and cpu host-adjusted, operation by operation.
type repCost struct {
	wall, cpu, adjWall, adjCPU, allocB, allocObj, gcCPU, gcCycles, schedWait float64
}

// add accounts one operation, timed where the reference kernel took ref.
func (c *repCost) add(op repCost, ref float64) {
	c.wall += op.wall
	c.cpu += op.cpu
	c.adjWall += hostAdjust(op.wall, ref)
	c.adjCPU += hostAdjust(op.cpu, ref)
	c.allocB += op.allocB
	c.allocObj += op.allocObj
	c.gcCPU += op.gcCPU
	c.gcCycles += op.gcCycles
	c.schedWait += op.schedWait
}

func (c costs) since(b costs) repCost {
	return repCost{
		wall:      c.at.Sub(b.at).Seconds(),
		cpu:       c.cpu - b.cpu,
		allocB:    float64(c.allocB - b.allocB),
		allocObj:  float64(c.allocObj - b.allocObj),
		gcCPU:     c.gcCPU - b.gcCPU,
		gcCycles:  float64(c.gcCycles - b.gcCycles),
		schedWait: histSum(c.sched, b.sched),
	}
}

// histSum estimates the summed latency of the observations added between
// two snapshots of a time histogram (bucket midpoints).
func histSum(after, before *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range after.Counts {
		d := n - before.Counts[i]
		if d == 0 {
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(d) * (lo + hi) / 2
	}
	return sum
}

// oneRep sets up and runs one rep. A traced rep (p.tr set) is also CPU
// profiled over its operations; the folded profile is returned.
func oneRep(w *workload, p *params) (repResult, repCost, *cpuFold) {
	p.tr.beginRep()
	defer p.tr.endRep()
	hostProbe := func() (ref float64, err error) {
		p.tr.call(hostRefSpan, "", func() { ref, err = hostRef() })
		return ref, err
	}
	ref, err := hostProbe()
	if err != nil {
		return failedOp("%v", err), repCost{}, nil
	}
	var r *rep
	if err := protect(func() (err error) { r, err = w.setUp(p); return err }); err != nil {
		return failedOp("set-up: %v", err), repCost{}, nil
	}
	res := repResult{ops: int64(len(r.ops))}
	var cost repCost
	var fold *cpuFold
	if p.tr != nil {
		fold = newCPUFold()
	}
	for _, op := range r.ops {
		c, err := timeOp(op, fold)
		// The kernel's memory is mapped by the first probe; later ones
		// cannot fail.
		next, _ := hostProbe()
		cost.add(c, math.Sqrt(ref*next))
		ref = next
		if err != nil {
			res.fail("%v", err)
		}
	}
	if res.failed == 0 {
		if err := protect(func() error { r.check(&res); return nil }); err != nil {
			res.fail("check: %v", err)
		}
	}
	// An operation fails once, however many checks it violates.
	res.failed = min(res.failed, res.ops)
	return res, cost, fold
}

// timeOp runs one operation, turning a panic into an error, and adds its
// CPU profile to fold when fold is not nil.
func timeOp(op func() error, fold *cpuFold) (repCost, error) {
	var prof bytes.Buffer
	profiling := fold != nil && pprof.StartCPUProfile(&prof) == nil
	before := readCosts()
	err := protect(op)
	cost := readCosts().since(before)
	if profiling {
		pprof.StopCPUProfile()
		f, ferr := foldProfile(prof.Bytes())
		if ferr != nil {
			return cost, errors.Join(err, ferr)
		}
		fold.merge(f)
	}
	return cost, err
}

// childResult is what a measuring process reports to its parent.
type childResult struct {
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Digest    string          `json:"digest"`
	Reps      int             `json:"reps"`
	Metrics   map[string]stat `json:"metrics"`
}

func (c *childResult) add(r repResult) {
	c.Attempted += r.ops
	c.Failed += r.failed
	c.Errors = append(c.Errors, r.errs...)
}

// checkDigest holds every timed rep to the first rep's model digest.
func (c *childResult) checkDigest(r repResult) {
	switch {
	case r.failed > 0:
	case c.Digest == "":
		c.Digest = r.digest
	case r.digest != c.Digest:
		c.Failed++
		c.Errors = append(c.Errors, fmt.Sprintf("model digest %s differs from the first rep's %s", r.digest, c.Digest))
	}
}

// withInput generates the workload's input at p's scale.
func withInput(w *workload, p params) (params, error) {
	if w.input == nil {
		return p, nil
	}
	in, err := w.input(p.seed, p.scale)
	p.input = in
	return p, err
}

// measure runs one workload for the given seconds. Untraced, it reports the
// end-to-end metrics measured in-process; traced, it times one untraced rep
// and then profiles and traces reps for the per-layer metrics, returning
// the tracer for the span file.
func measure(w *workload, base params, seconds float64, traced bool) (childResult, *tracer) {
	var out childResult
	warm := base
	warm.scale = base.scale / 10
	warm, err := withInput(w, warm)
	if err != nil {
		out.add(failedOp("input: %v", err))
	} else {
		r, _, _ := oneRep(w, &warm)
		out.add(r)
	}
	p, err := withInput(w, base)
	if err != nil {
		out.add(failedOp("input: %v", err))
		return out, nil
	}

	start := time.Now()
	more := func() bool { return time.Since(start).Seconds() < seconds }
	// Only reps whose operations all succeeded are timed.
	var costs []repCost
	var works []float64
	// A traced run times a single untraced rep, the base of trace_overhead.
	for out.Reps == 0 || !traced && more() {
		out.Reps++
		r, c, _ := oneRep(w, &p)
		out.add(r)
		out.checkDigest(r)
		if r.failed == 0 {
			costs = append(costs, c)
			works = append(works, r.work)
		}
	}
	if !traced {
		out.Metrics = untracedMetrics(costs, works)
		return out, nil
	}

	tr := newTracer()
	fold := newCPUFold()
	var tcosts []repCost
	var last repResult
	for n := 0; n == 0 || more(); n++ {
		out.Reps++
		tp := p
		tp.tr, tp.probe = tr, &probe{}
		r, c, f := oneRep(w, &tp)
		out.add(r)
		out.checkDigest(r)
		if r.failed == 0 {
			tcosts = append(tcosts, c)
			last = r
		}
		if r.failed == 0 && f != nil {
			fold.merge(f)
		}
	}
	out.Metrics = tracedMetrics(tr, fold, tcosts, last, pick(costs, func(c repCost) float64 { return c.adjWall }))
	return out, tr
}

func pick(costs []repCost, f func(repCost) float64) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = f(c)
	}
	return out
}

// untracedMetrics are the end-to-end metrics measured in the workload
// process. Times are host-adjusted; host_ref_ms, outside the end-to-end
// list, is the reference time they were adjusted by. Allocation is reported
// per simulated operation, so that seeds offering more or less work compare
// on equal terms.
func untracedMetrics(costs []repCost, works []float64) map[string]stat {
	perOp := func(f func(repCost) float64) []float64 {
		out := make([]float64, len(costs))
		for i, c := range costs {
			if works[i] > 0 {
				out[i] = f(c) / works[i]
			}
		}
		return out
	}
	rates := make([]float64, len(costs))
	for i, c := range costs {
		rates[i] = works[i] / c.adjWall
	}
	return map[string]stat{
		"wall_s":               statOf("s", pick(costs, func(c repCost) float64 { return c.adjWall })),
		"sim_ops_per_s":        statOf("1/s", rates),
		"cpu_s":                statOf("s", pick(costs, func(c repCost) float64 { return c.adjCPU })),
		"host_ref_ms":          statOf("ms", pick(costs, func(c repCost) float64 { return 1e3 * refNominal * c.wall / c.adjWall })),
		"alloc_kib_per_op":     statOf("KiB", perOp(func(c repCost) float64 { return c.allocB / 1024 })),
		"alloc_objects_per_op": statOf("objects", perOp(func(c repCost) float64 { return c.allocObj })),
	}
}

// tracedMetrics are the per-layer metrics of the successful traced reps.
// Metrics of layers or counts a workload never touches read 0.
func tracedMetrics(tr *tracer, fold *cpuFold, costs []repCost, last repResult, untracedWalls []float64) map[string]stat {
	one := func(unit string, v float64) stat { return stat{Value: v, Unit: unit, Min: v, Max: v, Samples: 1} }
	out := map[string]stat{}
	for _, m := range perLayer() {
		out[m.name] = one(m.unit, 0)
	}
	shares := tr.shares()
	for _, s := range spanNames {
		out["span."+s+"_pct"] = one("%", shares[s])
	}
	for _, l := range cpuLayers {
		out["cpu."+l+"_pct"] = one("%", fold.share(fold.layers[l]))
	}
	for _, c := range leafClasses {
		out["cpu.leaf."+c+"_pct"] = one("%", fold.share(fold.leaves[c]))
	}
	out["go.gc_cpu_s"] = statOf("s", pick(costs, func(c repCost) float64 { return c.gcCPU }))
	out["go.gc_cycles"] = statOf("count", pick(costs, func(c repCost) float64 { return c.gcCycles }))
	out["go.sched_wait_s"] = statOf("s", pick(costs, func(c repCost) float64 { return c.schedWait }))
	for _, d := range countDefs {
		out[d.name] = one(d.unit, last.counts[d.name])
	}
	if len(costs) == 0 {
		return out
	}
	out["cpu.profile_s"] = one("s", float64(fold.cpuNs)/1e9/float64(len(costs)))
	if len(untracedWalls) > 0 {
		traced := statOf("s", pick(costs, func(c repCost) float64 { return c.adjWall })).Value
		out["trace_overhead"] = one("ratio", traced/statOf("s", untracedWalls).Value-1)
	}
	return out
}
