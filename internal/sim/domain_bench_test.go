package sim

import (
	"fmt"
	"testing"
)

// BenchmarkGroupWindow is the window-cost rung of the bench ladder: two
// shards linked at lookahead L, and on each busy shard one process that
// sleeps L per iteration, so every window holds one wake-up per busy shard
// and ns/op is the cost of one window. The group takes GOMAXPROCS
// executors, so under -cpu=2 a busy=1 window runs in-line on the
// coordinator and a busy=2 window commands the second executor.
func BenchmarkGroupWindow(b *testing.B) {
	const lat = 100
	for _, busy := range []int{1, 2} {
		b.Run(fmt.Sprintf("busy=%d", busy), func(b *testing.B) {
			b.ReportAllocs()
			g := NewGroup(0)
			shards := []*Shard{g.AddShard("a", NewEnv()), g.AddShard("b", NewEnv())}
			g.LinkAll(lat)
			for _, s := range shards[:busy] {
				s.Env().Go("tick", func(p *Proc) {
					for i := 0; i < b.N; i++ {
						p.Sleep(lat)
					}
				})
			}
			b.ResetTimer()
			g.Run(Time(b.N) * lat)
			b.StopTimer()
			g.Shutdown()
		})
	}
}
