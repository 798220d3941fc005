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
// mesh latency plus the extra delay; messages due at the same instant on
// one shard must run in the order of the barriers that delivered them and,
// within one barrier, in (source shard, send order); no
// conservative-synchronization panic may fire; and every shard's clock
// must stand at the deadline after Run.
// The window loop runs on whichever goroutine holds the baton, so every
// switch the Run makes, summed over the shards, goes to a resumed or
// started process but the one that hands the baton back to the caller.
func FuzzGroupDelivery(f *testing.F) {
	// Each seed's comment is its decoded (shards, latency ns, events).
	f.Add(uint64(1), uint8(2), uint16(10), uint8(20))       // (4, 11, 21)
	f.Add(uint64(0x5eed), uint8(3), uint16(1), uint8(40))   // (2, 2, 41)
	f.Add(uint64(42), uint8(4), uint16(350), uint8(59))     // (3, 351, 60)
	f.Add(uint64(7777), uint8(4), uint16(65535), uint8(10)) // (3, 536, 11)
	f.Add(uint64(1), uint8(1), uint16(350), uint8(59))      // (3, 351, 60): s1 and s2 tie on s0 at 2251
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
		// last[d] is the message that ran last on shard d: its due time,
		// the barrier that delivered it (the close of the window it was
		// sent in), its source shard and its send index.
		type sent struct {
			at, barrier Time
			src, k      int
		}
		last := make([]sent, nshards)
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
					m := sent{want, g.bound, i, k}
					s.Send(to, extra, func() {
						ran++
						if now := to.Env().Now(); now != want {
							t.Errorf("%s -> %s: message ran at %d, want %d", s.Name(), to.Name(), now, want)
						}
						if l := last[target]; l.at == m.at && (l.barrier > m.barrier ||
							l.barrier == m.barrier && (l.src > m.src || l.src == m.src && l.k > m.k)) {
							t.Errorf("on %s at %d: message %d of s%d (barrier %d) ran after message %d of s%d (barrier %d)",
								to.Name(), m.at, m.k, m.src, m.barrier, l.k, l.src, l.barrier)
						}
						last[target] = m
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
