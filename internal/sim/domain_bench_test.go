package sim

import (
	"fmt"
	"testing"
)

// windowLat is the lookahead of BenchmarkGroupWindow's rig.
const windowLat = 100

// windowRig builds BenchmarkGroupWindow's rig: two shards linked at
// lookahead windowLat, and on each of the first busy shards one process
// that sleeps windowLat per iteration, for windows iterations, so every
// window holds one wake-up per busy shard.
func windowRig(busy, windows int) *Group {
	g := NewGroup(1)
	shards := []*Shard{g.AddShard("a", NewEnv()), g.AddShard("b", NewEnv())}
	g.LinkAll(windowLat)
	for _, s := range shards[:busy] {
		s.Env().Go("tick", func(p *Proc) {
			for i := 0; i < windows; i++ {
				p.Sleep(windowLat)
			}
		})
	}
	return g
}

// BenchmarkGroupWindow is the window-cost rung of the bench ladder: ns/op
// is the cost of one window of windowRig, both shards stepped in turn.
// events/op, starts/op, resumes/op and switches/op count the kernel's work
// exactly, summed over the shards.
func BenchmarkGroupWindow(b *testing.B) {
	for _, busy := range []int{1, 2} {
		b.Run(fmt.Sprintf("busy=%d", busy), func(b *testing.B) {
			b.ReportAllocs()
			g := windowRig(busy, b.N)
			b.ResetTimer()
			g.Run(Time(b.N) * windowLat)
			b.StopTimer()
			g.Shutdown()
			switches, resumes, starts := groupCounts(g)
			events := 0
			for _, s := range g.shards {
				events += s.env.Events()
			}
			n := float64(b.N)
			b.ReportMetric(float64(events)/n, "events/op")
			b.ReportMetric(float64(starts)/n, "starts/op")
			b.ReportMetric(float64(resumes)/n, "resumes/op")
			b.ReportMetric(float64(switches)/n, "switches/op")
		})
	}
}
