package experiments

import "storagesim/internal/sim"

// timeline sums a quantity over virtual time in fixed-width buckets:
// sums[k] holds what was added at instants in [k*width, (k+1)*width).
type timeline struct {
	width sim.Duration
	sums  []float64
}

// newTimeline returns n empty buckets of the given width.
func newTimeline(width sim.Duration, n int) timeline {
	return timeline{width: width, sums: make([]float64, n)}
}

// add adds x to the bucket holding instant at; an instant outside the
// timeline is dropped.
func (t timeline) add(at sim.Time, x float64) {
	if k := int(sim.Duration(at) / t.width); k >= 0 && k < len(t.sums) {
		t.sums[k] += x
	}
}
