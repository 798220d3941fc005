// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections V and VI) plus the takeaway numbers of Section VII
// and a set of ablations for the design hypotheses the paper could not test
// (its stated future work).
//
// Each experiment constructs a fresh simulated cluster and storage
// deployment per data point, repeats it Options.Reps times with a seeded
// contention model (the paper repeats every test 10 times "to test
// performance consistency in the shared environment"), and returns typed
// series with error bars.
package experiments

import (
	"fmt"
	"strings"

	"storagesim/internal/stats"
)

// Options controls sweep sizes and repetition.
type Options struct {
	// Reps is the number of repetitions per point (the paper uses 10).
	// Repetition 0 runs on an uncontended system; later repetitions derate
	// shared components pseudo-randomly. Zero means 1.
	Reps int
	// Seed drives the contention model and workload shuffles.
	Seed uint64
	// Quick shrinks the sweeps (for unit tests and smoke runs).
	Quick bool
	// Racks partitions the traffic-driven experiments into this many
	// group shards — one full testbed per rack, advanced in windows under
	// conservative synchronization. 0 or 1 keeps the classic single-env
	// path (and its byte-identical goldens).
	Racks int
	// RemoteFraction is the cross-rack placement probability of the
	// sharded traffic engine when Racks > 1.
	RemoteFraction float64
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	return o
}

// Contention spreads: how much of a system's server-side capacity
// background users can take in a bad repetition (see contentionSpread).
const (
	sharedSpread    = 0.15
	dedicatedSpread = 0.03
)

// derateFactor returns the contention factor for a repetition: rep 0 is
// clean, later reps scale capacity down by up to `spread`.
func derateFactor(rng *stats.RNG, rep int, spread float64) float64 {
	if rep == 0 {
		return 1
	}
	return 1 - spread*rng.Float64()
}

// Panel is one plot panel: named series over a shared X axis.
type Panel struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
	Notes  []string
}

// Render formats the panel as an aligned text table (the repository's
// stand-in for the paper's plots).
func (p Panel) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", p.ID, p.Title)
	fmt.Fprintf(&b, "%-10s", p.XLabel)
	for _, s := range p.Series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteString("\n")
	if len(p.Series) > 0 {
		for i, pt := range p.Series[0].Points {
			fmt.Fprintf(&b, "%-10g", pt.X)
			for _, s := range p.Series {
				y := s.YAt(pt.X)
				errv := 0.0
				if i < len(s.Err) {
					errv = s.Err[i]
				}
				fmt.Fprintf(&b, " %14.3f ±%6.3f", y, errv)
			}
			b.WriteString("\n")
		}
	}
	for _, n := range p.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Table is a rendered result table (Table I, takeaways).
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// summarizeReps folds per-repetition values into a (mean, stddev) pair for
// a series point.
func summarizeReps(vals []float64) (mean, dev float64) {
	s := stats.Summarize(vals)
	return s.Mean, s.Stddev
}

// nodesSweep returns the Figure 2a node counts (1..128 on Lassen).
func nodesSweep(quick bool) []int {
	if quick {
		return []int{1, 4, 16, 64}
	}
	return []int{1, 2, 4, 8, 16, 32, 64, 128}
}

// wombatSweep returns the Figure 2b node counts (Wombat has 8 nodes).
func wombatSweep(quick bool) []int {
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 2, 4, 8}
}

// procsSweep returns the Figure 3 per-node process counts.
func procsSweep(quick bool) []int {
	if quick {
		return []int{1, 8, 32}
	}
	return []int{1, 2, 4, 8, 16, 32}
}
