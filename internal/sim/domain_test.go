package sim

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// ringModel builds a canonical multi-shard model on g: `shards` shards in a
// full mesh at `lat`, each running a generator process that wakes every
// `period`, bumps a local counter and sends a payload to the next shard in
// the ring (with a per-hop extra delay), where the receiver folds
// (receive time, payload) into the shard's order-sensitive digest. Returns
// the per-shard digest accumulators.
type ringShard struct {
	sh     *Shard
	local  uint64
	digest uint64
}

func (r *ringShard) fold(v uint64) {
	r.digest = (r.digest ^ v) * 0x100000001b3
}

func buildRing(g *Group, shards int, lat, period Duration, sends int) []*ringShard {
	rs := make([]*ringShard, shards)
	for i := 0; i < shards; i++ {
		rs[i] = &ringShard{sh: g.AddShard(fmt.Sprintf("shard%d", i), NewEnv())}
	}
	g.LinkAll(lat)
	for i, r := range rs {
		i, r := i, r
		next := rs[(i+1)%shards]
		r.sh.Env().Go("gen", func(p *Proc) {
			for k := 0; k < sends; k++ {
				p.Sleep(period + Duration(i)*3)
				r.local++
				payload := uint64(i)<<32 | uint64(k)
				r.sh.Send(next.sh, Duration(k%5), func() {
					next.fold(uint64(next.sh.Env().Now()) ^ payload)
				})
			}
		})
	}
	return rs
}

func ringDigest(rs []*ringShard) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s local=%d digest=%016x now=%d;", r.sh.Name(), r.local, r.digest, r.sh.Env().Now())
	}
	return b.String()
}

// TestGroupLockstep pins the outcome of the ring model, in which every
// shard has work in every busy window: the digest's SHA-256 fails the test
// if any receive time, local count or final clock moves.
func TestGroupLockstep(t *testing.T) {
	g := NewGroup(1)
	rs := buildRing(g, 4, 200, 70, 40)
	g.Run(20_000)
	g.Shutdown()
	got := ringDigest(rs)
	if strings.Contains(got, "digest=0000000000000000") {
		t.Fatalf("model did not exercise cross-shard messages: %s", got)
	}
	const want = "f6e2c0f5bddd968135ed7a4ccd79948d1452731520b601309e8c9c1f2d39e97a"
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != want {
		t.Errorf("ring digest moved: sha256 %s, want %s\n%s", sum, want, got)
	}
}

// TestGroupMessageTiming checks that a message runs on the destination at
// exactly send-time + mesh latency + extra, and that the destination clock
// has reached (not passed) that instant.
func TestGroupMessageTiming(t *testing.T) {
	g := NewGroup(1)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.LinkAll(150)
	var got Time
	a.Env().Go("sender", func(p *Proc) {
		p.Sleep(40)
		a.Send(b, 25, func() { got = b.Env().Now() })
	})
	g.Run(1000)
	g.Shutdown()
	if want := Time(40 + 150 + 25); got != want {
		t.Fatalf("message ran at %d, want %d", got, want)
	}
}

// TestGroupDeliveryOrder: messages due at the same instant on one shard
// run in (source shard, send order) order, not in the order the senders
// reached their send times.
func TestGroupDeliveryOrder(t *testing.T) {
	g := NewGroup(1)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	c := g.AddShard("c", NewEnv())
	g.LinkAll(100)
	var got []string
	sendAt := func(from *Shard, at Time, extra Duration, names ...string) {
		from.Env().Schedule(at, func() {
			for _, n := range names {
				from.Send(c, extra, func() { got = append(got, n) })
			}
		})
	}
	sendAt(b, 10, 5, "b0", "b1") // due at 115
	sendAt(a, 15, 0, "a0", "a1") // due at 115, sent later
	g.Run(1000)
	g.Shutdown()
	if got, want := strings.Join(got, " "), "a0 a1 b0 b1"; got != want {
		t.Fatalf("delivery order %q, want %q", got, want)
	}
}

// TestGroupIdleSkip runs a sparse model whose events are separated by
// thousands of lookaheads: the run must still complete promptly (the
// group jumps empty windows) and deliver messages at exact times.
func TestGroupIdleSkip(t *testing.T) {
	g := NewGroup(1)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.LinkAll(10)
	var times []Time
	a.Env().Go("sparse", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1_000_000) // 100k lookaheads of silence
			a.Send(b, 0, func() { times = append(times, b.Env().Now()) })
		}
	})
	g.Run(10_000_000)
	g.Shutdown()
	if len(times) != 5 {
		t.Fatalf("delivered %d messages, want 5", len(times))
	}
	for i, at := range times {
		if want := Time(1_000_000*(i+1) + 10); at != want {
			t.Errorf("message %d at %d, want %d", i, at, want)
		}
	}
}

// TestGroupSingleShard: a one-shard group behaves exactly like RunUntil on
// a plain Env.
func TestGroupSingleShard(t *testing.T) {
	g := NewGroup(1)
	s := g.AddShard("solo", NewEnv())
	var n int
	s.Env().Go("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(7)
			n++
		}
	})
	if end := g.Run(1000); end != 1000 {
		t.Fatalf("group clock %d, want 1000", end)
	}
	if s.Env().Now() != 1000 || n != 10 {
		t.Fatalf("shard now=%d n=%d, want 1000, 10", s.Env().Now(), n)
	}
	g.Shutdown()
}

// TestGroupResume: Run may be called repeatedly with increasing deadlines
// and the barrier clock picks up where it stopped.
func TestGroupResume(t *testing.T) {
	g := NewGroup(1)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.LinkAll(50)
	var hits []Time
	a.Env().Go("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(100)
			a.Send(b, 0, func() { hits = append(hits, b.Env().Now()) })
		}
	})
	g.Run(120)
	if g.Now() != 120 {
		t.Fatalf("clock %d after first run, want 120", g.Now())
	}
	g.Run(1000)
	g.Shutdown()
	if len(hits) != 4 {
		t.Fatalf("got %d deliveries, want 4", len(hits))
	}
	for i, at := range hits {
		if want := Time(100*(i+1) + 50); at != want {
			t.Errorf("delivery %d at %d, want %d", i, at, want)
		}
	}
}

// TestGroupPanicPropagation: a panic surfaces at the Run caller with its
// original value, and Shutdown must return afterwards, whichever goroutine
// held the baton (TestPanicSurfacesAtRun raises one at every site).
func TestGroupPanicPropagation(t *testing.T) {
	t.Run("lone busy shard in-line", func(t *testing.T) {
		g := NewGroup(1)
		shards := make([]*Shard, 4)
		for i := range shards {
			shards[i] = g.AddShard(fmt.Sprintf("s%d", i), NewEnv())
		}
		g.LinkAll(100)
		shards[2].Env().Schedule(30, func() { panic("model bug") })
		defer func() {
			if r := recover(); r != "model bug" {
				t.Fatalf("recovered %v, want model bug", r)
			}
			g.Shutdown()
		}()
		g.Run(1000)
		t.Fatal("run returned despite panicking model")
	})
	t.Run("on a process goroutine of another shard", func(t *testing.T) {
		base := runtime.NumGoroutine()
		g := NewGroup(1)
		s0 := g.AddShard("s0", NewEnv())
		s1 := g.AddShard("s1", NewEnv())
		g.LinkAll(100)
		// The sleeper starts in the first window and parks past it, so its
		// goroutine holds the baton when shard 1 is stepped.
		s0.Env().Go("sleeper", func(p *Proc) { p.Sleep(1000) })
		s1.Env().Schedule(30, func() {
			// One switch, the sleeper's start, and no hand-back since.
			if n := s0.Env().Switches(); n != 1 {
				t.Errorf("shard 0 made %d switches: shard 1 is not stepped on the sleeper's goroutine", n)
			}
			panic("model bug")
		})
		defer func() {
			if r := recover(); r != "model bug" {
				t.Fatalf("recovered %v, want model bug", r)
			}
			g.Shutdown()
			settleGoroutines(t, base)
		}()
		g.Run(1000)
		t.Fatal("run returned despite panicking model")
	})
	t.Run("conservative violation on a process goroutine", func(t *testing.T) {
		base := runtime.NumGoroutine()
		g := NewGroup(1)
		s0 := g.AddShard("s0", NewEnv())
		g.AddShard("s1", NewEnv())
		g.LinkAll(100)
		// The process plants a message due before the barrier it is
		// delivered at, which only a kernel bug could send, and parks: its
		// goroutine closes the window and delivers.
		s0.Env().Go("planter", func(p *Proc) {
			p.Sleep(150)
			g.pending = append(g.pending, xmsg{at: 10, src: 0, dst: 1, fn: func() {}})
			p.Sleep(1000)
		})
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "conservative synchronization violated") {
				t.Fatalf("recovered %v, want the conservative-violation panic", r)
			}
			g.Shutdown()
			settleGoroutines(t, base)
		}()
		g.Run(10000)
		t.Fatal("run returned despite the late message")
	})
}

// groupCounts sums the kernel's counts over a group's shards.
func groupCounts(g *Group) (switches, resumes, starts int) {
	for _, s := range g.shards {
		switches += s.env.Switches()
		resumes += s.env.Resumes()
		starts += s.env.Starts()
	}
	return switches, resumes, starts
}

// TestGroupWindowSwitches pins where the baton goes on
// BenchmarkGroupWindow's rig. The window loop runs on whichever goroutine
// holds the baton, so with one busy shard a Run makes two switches
// whatever its window count: the start of the process's goroutine and the
// hand-back to the Run caller. With two busy shards it makes two per
// window, one to each shard's process.
func TestGroupWindowSwitches(t *testing.T) {
	for _, tc := range []struct {
		busy, windows, want int
	}{
		{1, 1, 2}, {1, 10, 2}, {1, 1000, 2},
		{2, 1, 3}, {2, 10, 21}, {2, 1000, 2001},
	} {
		g := windowRig(tc.busy, tc.windows)
		g.Run(Time(tc.windows) * windowLat)
		g.Shutdown()
		if got, _, _ := groupCounts(g); got != tc.want {
			t.Errorf("busy=%d, %d windows: %d switches, want %d", tc.busy, tc.windows, got, tc.want)
		}
	}
}

// TestGroupRunsInARow: a Run that ended on a process goroutine leaves the
// group ready for the next one. Two shards trade messages from processes
// that sleep between sends, so the first Run hands the baton off and gets
// it back from a worker, parked or pooled; the second picks the same
// workers up. Every message must run at its exact due time, and each Run
// hands the baton back to its caller once, so every other switch goes to
// a process.
func TestGroupRunsInARow(t *testing.T) {
	g := NewGroup(1)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.LinkAll(50)
	ran := 0
	for _, pair := range [][2]*Shard{{a, b}, {b, a}} {
		from, to := pair[0], pair[1]
		from.Env().Go("sender", func(p *Proc) {
			for i := 0; i < 6; i++ {
				p.Sleep(70)
				due := p.Now() + 50
				from.Send(to, 0, func() {
					ran++
					if now := to.Env().Now(); now != due {
						t.Errorf("message to %s ran at %d, want %d", to.Name(), now, due)
					}
					to.Env().Go("receiver", func(p *Proc) { p.Sleep(10) })
				})
			}
		})
	}
	for run, until := range []Time{250, 1000} {
		if end := g.Run(until); end != until {
			t.Fatalf("run %d ended at %d, want %d", run, end, until)
		}
		switches, resumes, starts := groupCounts(g)
		if switches == 0 {
			t.Fatalf("run %d never handed the baton to a process", run)
		}
		if switches > resumes+starts+run+1 {
			t.Errorf("after run %d: %d switches for %d resumes and %d starts", run, switches, resumes, starts)
		}
	}
	g.Shutdown()
	if ran != 12 {
		t.Fatalf("%d messages ran, want 12", ran)
	}
}

// TestGroupValidation covers the constructor/coupling guard rails.
func TestGroupValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	g := NewGroup(1)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	mustPanic("zero latency", func() { g.LinkAll(0) })
	mustPanic("send without link", func() { a.Send(b, 0, func() {}) })
	g.Run(10)
	mustPanic("late AddShard", func() { g.AddShard("c", NewEnv()) })
	mustPanic("late LinkAll", func() { g.LinkAll(5) })
	mustPanic("rewind", func() { g.Run(5) })
	g.Shutdown()

	g2 := NewGroup(1)
	x := g2.AddShard("x", NewEnv())
	y := g2.AddShard("y", NewEnv())
	g2.LinkAll(10)
	x.Env().Go("p", func(p *Proc) {
		p.Sleep(1)
		mustPanic("self-send", func() { x.Send(x, 0, func() {}) })
		mustPanic("send across groups", func() { x.Send(b, 0, func() {}) })
		mustPanic("negative extra", func() { x.Send(y, -1, func() {}) })
	})
	g2.Run(100)
	g2.Shutdown()
}

// TestGroupLinkAll: a second LinkAll keeps the smaller latency, which both
// stamps messages and bounds the windows, and a one-shard group runs in
// one window whatever its latency.
func TestGroupLinkAll(t *testing.T) {
	g := NewGroup(1)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.LinkAll(30)
	g.LinkAll(10)
	g.LinkAll(20)
	var got Time
	a.Env().Schedule(5, func() {
		if end := a.env.deadline; end != 10 {
			t.Errorf("first window ends at %d, want 10", end)
		}
		a.Send(b, 25, func() { got = b.Env().Now() })
	})
	g.Run(1000)
	g.Shutdown()
	if want := Time(5 + 10 + 25); got != want {
		t.Fatalf("message ran at %d, want %d", got, want)
	}

	solo := NewGroup(1)
	s := solo.AddShard("solo", NewEnv())
	solo.LinkAll(10)
	ran := 0
	for _, at := range []Time{5, 500} {
		s.Env().Schedule(at, func() {
			if end := s.env.deadline; end != 1000 {
				t.Errorf("event at %d runs in a window ending at %d, want 1000", at, end)
			}
			ran++
		})
	}
	if end := solo.Run(1000); end != 1000 || ran != 2 {
		t.Fatalf("one-shard run ended at %d after %d events, want 1000 and 2", end, ran)
	}
	solo.Shutdown()
}

// TestGroupUnlinkedShards: with no links there is no coupling and the
// group advances every shard to the deadline in one window.
func TestGroupUnlinkedShards(t *testing.T) {
	g := NewGroup(1)
	counts := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		s := g.AddShard(fmt.Sprintf("iso%d", i), NewEnv())
		s.Env().Go("p", func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Sleep(13)
				counts[i]++
			}
		})
	}
	g.Run(10_000)
	g.Shutdown()
	for i, n := range counts {
		if n != 50 {
			t.Errorf("shard %d ran %d ticks, want 50", i, n)
		}
	}
}

// TestNextEventAt exercises the calendar peek the group's boundary uses,
// on every level: the near-future buckets, the second level's slots,
// tombstoned entries in both and the far-future overflow heap.
func TestNextEventAt(t *testing.T) {
	e := NewEnv()
	if _, ok := e.q.nextAt(); ok {
		t.Fatal("empty calendar reported an event")
	}
	h1 := e.Schedule(100, func() {})
	h2 := e.Schedule(1_000_000, func() {}) // past the wheel: second level
	e.Schedule(50_000_000, func() {})      // far future: overflow heap
	if at, ok := e.q.nextAt(); !ok || at != 100 {
		t.Fatalf("peek = %v,%v want 100,true", at, ok)
	}
	h1.Cancel()
	if at, ok := e.q.nextAt(); !ok || at != 1_000_000 {
		t.Fatalf("peek after cancel = %v,%v want 1000000,true", at, ok)
	}
	h2.Cancel()
	if at, ok := e.q.nextAt(); !ok || at != 50_000_000 {
		t.Fatalf("peek after second cancel = %v,%v want 50000000,true", at, ok)
	}
	e.Schedule(70, func() {})
	if at, ok := e.q.nextAt(); !ok || at != 70 {
		t.Fatalf("peek after reschedule = %v,%v want 70,true", at, ok)
	}
	e.Run()
	if _, ok := e.q.nextAt(); ok {
		t.Fatal("drained calendar reported an event")
	}
}
