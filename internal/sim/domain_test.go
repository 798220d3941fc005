package sim

import (
	"fmt"
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

// runRing executes the canonical model at the given executor cap and
// returns its digest and the number of windows that commanded an executor.
func runRing(t *testing.T, parallel, shards int, until Time) (string, int) {
	t.Helper()
	g := NewGroup(parallel)
	rs := buildRing(g, shards, 200, 70, 40)
	g.Run(until)
	g.Shutdown()
	return ringDigest(rs), g.commanded
}

// TestGroupLockstep pins the tentpole property: the same model produces the
// byte-identical digest whether its shards are advanced by one executor
// (the sequential oracle), two, four, or more executors than shards. Every
// shard of the ring has work in every busy window, so the parallel runs
// must really command executors rather than fall back to in-line windows.
func TestGroupLockstep(t *testing.T) {
	want, _ := runRing(t, 1, 4, 20_000)
	if !strings.Contains(want, "digest=") || strings.Contains(want, "digest=0000000000000000") {
		t.Fatalf("model did not exercise cross-shard messages: %s", want)
	}
	for _, parallel := range []int{2, 4, 16} {
		got, commanded := runRing(t, parallel, 4, 20_000)
		if got != want {
			t.Errorf("parallel=%d diverged from sequential oracle:\n got %s\nwant %s", parallel, got, want)
		}
		if commanded == 0 && !forceSequentialGroups {
			t.Errorf("parallel=%d commanded no executor: every window ran in-line", parallel)
		}
	}
}

// runPingPong bounces one message between two shards: every window has
// exactly one busy shard. It returns the group and an order-sensitive
// digest of the receive times.
func runPingPong(parallel int) (*Group, string) {
	g := NewGroup(parallel)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.LinkAll(50)
	var digest uint64
	hops := 0
	var volley func(from, to *Shard) func()
	volley = func(from, to *Shard) func() {
		return func() {
			digest = (digest ^ uint64(to.Env().Now())) * 0x100000001b3
			if hops++; hops < 100 {
				to.Send(from, Duration(hops%7), volley(to, from))
			}
		}
	}
	a.Env().Schedule(10, func() { a.Send(b, 0, volley(a, b)) })
	g.Run(100_000)
	g.Shutdown()
	return g, fmt.Sprintf("hops=%d digest=%016x a=%d b=%d", hops, digest, a.Env().Now(), b.Env().Now())
}

// TestGroupInlineWindows: when only one executor has work in a window, the
// coordinator steps every shard itself — a two-executor ping-pong commands
// no executor, never starts an executor goroutine, and matches the
// sequential run.
func TestGroupInlineWindows(t *testing.T) {
	_, want := runPingPong(1)
	if !strings.HasPrefix(want, "hops=100 ") {
		t.Fatalf("ping-pong stopped early: %s", want)
	}
	g, got := runPingPong(2)
	if got != want {
		t.Errorf("2 executors diverged from sequential:\n got %s\nwant %s", got, want)
	}
	if g.commanded != 0 || g.cmds != nil {
		t.Errorf("one busy shard per window commanded %d windows (executors started: %v), want none",
			g.commanded, g.cmds != nil)
	}
}

// TestGroupMessageTiming checks that a message runs on the destination at
// exactly send-time + link latency + extra, and that the destination clock
// has reached (not passed) that instant.
func TestGroupMessageTiming(t *testing.T) {
	g := NewGroup(2)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.Link(a, b, 150)
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

// TestGroupIdleSkip runs a sparse model whose events are separated by
// thousands of lookaheads: the run must still complete promptly (the
// coordinator jumps empty windows) and deliver messages at exact times.
func TestGroupIdleSkip(t *testing.T) {
	g := NewGroup(2)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.Link(a, b, 10)
	g.Link(b, a, 10)
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
	g := NewGroup(4)
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
	g := NewGroup(2)
	a := g.AddShard("a", NewEnv())
	b := g.AddShard("b", NewEnv())
	g.Link(a, b, 50)
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

// TestGroupIdleExecutor: two of three executors own an event due exactly at
// the first boundary (T+L), so the window is parallel; the coordinator must
// also step the idle executor's shard, whose clock reaches the barrier.
func TestGroupIdleExecutor(t *testing.T) {
	g := NewGroup(3)
	shards := make([]*Shard, 3)
	for i := range shards {
		shards[i] = g.AddShard(fmt.Sprintf("s%d", i), NewEnv())
	}
	g.LinkAll(100)
	ran := make([]int, len(shards)) // one counter per shard: shards run concurrently
	for i, s := range shards[:2] {
		s.Env().Schedule(100, func() { ran[i]++ })
	}
	g.Run(100)
	g.Shutdown()
	if g.commanded != 1 && !forceSequentialGroups {
		t.Errorf("commanded %d windows, want 1", g.commanded)
	}
	for _, s := range shards {
		if s.Env().Now() != 100 {
			t.Errorf("%s clock %d after the barrier at 100", s.Name(), s.Env().Now())
		}
	}
	if ran[0] != 1 || ran[1] != 1 {
		t.Errorf("events ran %v times per shard, want [1 1 0]", ran)
	}
}

// TestGroupPanicPropagation: a model-callback panic surfaces at the Run
// caller with its original value (process-function panics crash on their
// worker goroutine, exactly as in single-Env runs), whether the window runs
// in-line or in parallel and, in parallel, whether the panicking shard is
// the coordinator's or an executor's. Shutdown must return afterwards.
func TestGroupPanicPropagation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		executors int
		panicOn   int  // shard whose callback panics at t=30
		busy      int  // another shard with an event at t=30, or -1
		parallel  bool // the panicking window commands an executor
	}{
		{"lone busy shard in-line", 4, 2, -1, false},
		{"coordinator shard in parallel window", 2, 0, 1, true},
		{"executor shard in parallel window", 2, 1, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroup(tc.executors)
			shards := make([]*Shard, 4)
			for i := range shards {
				shards[i] = g.AddShard(fmt.Sprintf("s%d", i), NewEnv())
			}
			g.LinkAll(100)
			shards[tc.panicOn].Env().Schedule(30, func() { panic("model bug") })
			if tc.busy >= 0 {
				shards[tc.busy].Env().Schedule(30, func() {})
			}
			defer func() {
				if r := recover(); r != "model bug" {
					t.Fatalf("recovered %v, want model bug", r)
				}
				if want := tc.parallel && !forceSequentialGroups; (g.commanded > 0) != want {
					t.Errorf("commanded %d windows, want parallel=%v", g.commanded, want)
				}
				g.Shutdown()
			}()
			g.Run(1000)
			t.Fatal("run returned despite panicking model")
		})
	}
}

// TestGroupValidation covers the constructor/topology guard rails.
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
	mustPanic("self link", func() { g.Link(a, a, 10) })
	mustPanic("zero latency", func() { g.Link(a, b, 0) })
	g.Run(10)
	mustPanic("late AddShard", func() { g.AddShard("c", NewEnv()) })
	mustPanic("late Link", func() { g.Link(a, b, 5) })
	mustPanic("rewind", func() { g.Run(5) })
	g.Shutdown()

	g2 := NewGroup(1)
	x := g2.AddShard("x", NewEnv())
	y := g2.AddShard("y", NewEnv())
	g2.Link(x, y, 10)
	x.Env().Go("p", func(p *Proc) {
		p.Sleep(1)
		mustPanic("send without link", func() { y.Send(x, 0, func() {}) })
		mustPanic("negative extra", func() { x.Send(y, -1, func() {}) })
	})
	g2.Run(100)
	g2.Shutdown()
}

// TestGroupUnlinkedShards: with no links there is no coupling and the
// group advances every shard to the deadline in one window.
func TestGroupUnlinkedShards(t *testing.T) {
	g := NewGroup(3)
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

// TestNextEventAt exercises the calendar peek on both wheel regions: the
// near-future buckets, tombstoned entries and the far-future overflow heap.
func TestNextEventAt(t *testing.T) {
	e := NewEnv()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("empty calendar reported an event")
	}
	h1 := e.Schedule(100, func() {})
	e.Schedule(50_000_000, func() {}) // far future: overflow heap
	if at, ok := e.NextEventAt(); !ok || at != 100 {
		t.Fatalf("peek = %v,%v want 100,true", at, ok)
	}
	h1.Cancel()
	if at, ok := e.NextEventAt(); !ok || at != 50_000_000 {
		t.Fatalf("peek after cancel = %v,%v want 50000000,true", at, ok)
	}
	e.Schedule(70, func() {})
	if at, ok := e.NextEventAt(); !ok || at != 70 {
		t.Fatalf("peek after reschedule = %v,%v want 70,true", at, ok)
	}
	e.Run()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("drained calendar reported an event")
	}
}
