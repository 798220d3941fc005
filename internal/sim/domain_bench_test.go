package sim

import (
	"fmt"
	"testing"
)

// BenchmarkGroupWindow is the window-cost rung of the bench ladder: two
// shards linked at lookahead L, and on each busy shard one process that
// sleeps L per iteration, so every window holds one wake-up per busy shard
// and ns/op is the cost of one window, both shards stepped in turn.
func BenchmarkGroupWindow(b *testing.B) {
	const lat = 100
	for _, busy := range []int{1, 2} {
		b.Run(fmt.Sprintf("busy=%d", busy), func(b *testing.B) {
			b.ReportAllocs()
			g := NewGroup(1)
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
