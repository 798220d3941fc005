package sim

import (
	"fmt"
	"testing"
)

// fuzzMix is a local splitmix64 so the fuzzed model's randomness is
// self-contained and deterministic per input.
func fuzzMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FuzzGroupDelivery runs a randomized multi-shard model built from (seed,
// shards, lat, events): a generator per shard sleeps, draws a target shard
// and sends it a message with a random extra delay, and each delivered
// message starts a short-lived process on its destination. Every message
// due by the deadline must run exactly once, at its send time plus the
// link latency plus the extra delay; no conservative-synchronization panic
// may fire; and every shard's clock must stand at the deadline after Run.
// The window loop runs on whichever goroutine holds the baton, so every
// switch the Run makes, summed over the shards, goes to a resumed or
// started process but the one that hands the baton back to the caller.
func FuzzGroupDelivery(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(10), uint8(20))
	f.Add(uint64(0x5eed), uint8(3), uint16(1), uint8(40))
	f.Add(uint64(42), uint8(4), uint16(350), uint8(60))
	f.Add(uint64(7777), uint8(4), uint16(65535), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, shardsRaw uint8, latRaw uint16, eventsRaw uint8) {
		nshards := 2 + int(shardsRaw)%3 // 2..4
		lat := Duration(1 + int(latRaw)%1000)
		events := 1 + int(eventsRaw)%60
		until := Time(events * 400)

		g := NewGroup(1)
		shards := make([]*Shard, nshards)
		for i := range shards {
			shards[i] = g.AddShard(fmt.Sprintf("s%d", i), NewEnv())
		}
		g.LinkAll(lat)
		due, ran := 0, 0
		for i, s := range shards {
			rng := seed ^ uint64(i)*0x9e3779b97f4a7c15
			s.Env().Go("gen", func(p *Proc) {
				r := rng
				for k := 0; k < events; k++ {
					r = fuzzMix(r)
					p.Sleep(Duration(r%301) + 1)
					r = fuzzMix(r)
					target := int(r % uint64(nshards))
					if target == i {
						continue // local work
					}
					to := shards[target]
					r = fuzzMix(r)
					extra := Duration(r % 97)
					want := s.Env().Now().Add(lat + extra)
					if want <= until {
						due++
					}
					s.Send(to, extra, func() {
						ran++
						if now := to.Env().Now(); now != want {
							t.Errorf("%s -> %s: message ran at %d, want %d", s.Name(), to.Name(), now, want)
						}
						to.Env().Go("receiver", func(p *Proc) { p.Sleep(extra + 1) })
					})
				}
			})
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("shards=%d lat=%d events=%d: %v", nshards, lat, events, r)
				}
			}()
			g.Run(until)
		}()
		if switches, resumes, starts := groupCounts(g); switches > resumes+starts+1 {
			t.Errorf("%d switches for %d resumes and %d starts", switches, resumes, starts)
		}
		g.Shutdown()
		if ran != due {
			t.Errorf("%d messages ran, %d were due by %d", ran, due, until)
		}
		for _, s := range shards {
			if now := s.Env().Now(); now != until {
				t.Errorf("%s clock %d after Run(%d)", s.Name(), now, until)
			}
		}
	})
}
