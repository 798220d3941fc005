package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"storagesim/internal/stats"
)

// runPoints runs a figure's n independent simulations — its (series, x,
// rep) points, listed in the serial loop's order — on min(n, GOMAXPROCS)
// worker goroutines pulling indices off an atomic counter, and returns the
// results by index. Every point builds its own sim.Env and testbed
// (buildTestbed allocates everything fresh; no backend keeps package-level
// mutable state), so the simulations share nothing, and capping the
// fan-out keeps peak memory at pool-width simulations.
//
// Output is byte-identical at any width (MODEL.md §6):
//
//   - anything random a point needs (its contention factor) is drawn by
//     the caller, in serial order, before the fan-out;
//   - results land in a slice by index, so merge order never depends on
//     which worker finishes first;
//   - failures surface lowest index first: the first point, in serial
//     order, that returned an error or panicked decides, and a panic is
//     re-raised on the calling goroutine with its original value, so a
//     model bug still reaches the caller's recover.
func runPoints[T any](n int, point func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	panics := make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], panics[i], errs[i] = runPoint(i, point)
			}
		}()
	}
	wg.Wait()
	for i := range out {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// runPoint runs one point on a worker, returning a panic as a value.
func runPoint[T any](i int, point func(i int) (T, error)) (v T, panicked any, err error) {
	defer func() { panicked = recover() }()
	v, err = point(i)
	return v, nil, err
}

// repPoint is one repetition of a contended sweep point.
type repPoint struct {
	series int     // index of the point's series in the figure
	x      float64 // the swept value: a node or process count, or a knob
	derate float64 // contention factor (derateFactor)
	seed   uint64  // the repetition's seed: the sweep seed plus rep
}

// appendReps appends series s's points over xs, reps repetitions each,
// x-major as the serial loops ran them, drawing each repetition's
// contention factor from rng in that order.
func appendReps(pts []repPoint, s int, xs []float64, reps int, rng *stats.RNG, spread float64, seed uint64) []repPoint {
	for _, x := range xs {
		for rep := 0; rep < reps; rep++ {
			pts = append(pts, repPoint{series: s, x: x, derate: derateFactor(rng, rep, spread), seed: seed + uint64(rep)})
		}
	}
	return pts
}

// sweepSeries is one series of a swept figure: the panel it joins, its
// name, its file system (which picks its contention stream and spread),
// its x values and the simulation that measures one repetition of a point.
type sweepSeries struct {
	panel int
	name  string
	fs    FS
	xs    []float64
	point func(x, derate float64, seed uint64) (float64, error)
}

// sweep runs every (series, x, rep) point of a figure in one runPoints
// call and appends each series, mean ± stddev per x, to its panel. Each
// series draws its repetitions' contention factors from its own stream,
// the seed mixed with its file system's name, in series order before the
// fan-out.
func sweep(panels []Panel, series []sweepSeries, opts Options) ([]Panel, error) {
	opts = opts.withDefaults()
	var pts []repPoint
	for s, ss := range series {
		rng := stats.NewRNG(opts.Seed ^ hashString(string(ss.fs)))
		pts = appendReps(pts, s, ss.xs, opts.Reps, rng, contentionSpread(ss.fs), opts.Seed)
	}
	vals, err := runPoints(len(pts), func(i int) (float64, error) {
		pt := pts[i]
		return series[pt.series].point(pt.x, pt.derate, pt.seed)
	})
	if err != nil {
		return nil, err
	}
	out := make([]stats.Series, len(series))
	for i := 0; i < len(pts); i += opts.Reps {
		mean, dev := summarizeReps(vals[i : i+opts.Reps])
		out[pts[i].series].Append(pts[i].x, mean, dev)
	}
	for s, ss := range series {
		out[s].Name = ss.name
		panels[ss.panel].Series = append(panels[ss.panel].Series, out[s])
	}
	return panels, nil
}
