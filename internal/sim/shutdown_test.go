package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits for runtime.NumGoroutine to fall back to want: an
// unwound goroutine acks Shutdown from its last deferred call, so it may
// still be exiting when Shutdown returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownUnwindsParkedProcesses parks processes on every kind of wait
// past a RunUntil deadline — a timer, an Event, a Resource, both sides of a
// Queue, and one woken but not yet resumed — then shuts the Env down. Each
// process's deferred calls must run exactly once, a deferred call that
// itself parks must not wedge the unwind, an unstarted process must never
// run, and no goroutine may be left.
func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv()
	ev := NewEvent(e)
	res := NewResource(e, "disk", 1)
	empty := NewQueue(e, "empty", 1)
	full := NewQueue(e, "full", 1)
	late := NewEvent(e)
	unwound := map[string]int{}
	park := func(name string, wait func(p *Proc)) {
		e.Go(name, func(p *Proc) {
			defer func() { unwound[name]++ }()
			wait(p)
			t.Errorf("%s returned from its wait", name)
		})
	}
	park("timer", func(p *Proc) { p.Sleep(1000) })
	park("event", func(p *Proc) { ev.Wait(p) })
	e.Go("holder", func(p *Proc) { res.Acquire(p, 1) })
	park("resource", func(p *Proc) { res.Acquire(p, 1) })
	park("queue-get", func(p *Proc) { empty.Get(p) })
	park("queue-put", func(p *Proc) { full.Put(p, 1); full.Put(p, 2) })
	park("woken", func(p *Proc) { late.Wait(p) })
	e.Go("defer-parks", func(p *Proc) {
		defer func() { unwound["defer-parks"]++ }()
		defer p.Sleep(5) // parks again while unwinding
		ev.Wait(p)
	})
	e.RunUntil(10)
	late.Fire() // "woken" is now both parked and due to resume
	started := false
	e.Go("unstarted", func(p *Proc) { started = true })

	e.Shutdown()
	for _, name := range []string{"timer", "event", "resource", "queue-get", "queue-put", "woken", "defer-parks"} {
		if unwound[name] != 1 {
			t.Errorf("%s: deferred calls ran %d times, want 1", name, unwound[name])
		}
	}
	if started {
		t.Error("a process spawned after the run started during Shutdown")
	}
	if e.Pending() != 0 || len(e.live) != 0 {
		t.Errorf("after Shutdown: %d events, %d live processes", e.Pending(), len(e.live))
	}
	settleGoroutines(t, base)
}

// TestGroupShutdownUnwindsShards: a group's windowed run leaves processes
// parked in every shard, and the goroutines of finished ones pooled;
// Group.Shutdown unwinds the first and dismisses the second. The run ends
// on a worker: once the Run caller hands the baton to a process, it gets
// it back only from the goroutine that ends the run.
func TestGroupShutdownUnwindsShards(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(1)
	unwound := 0
	for i := 0; i < 3; i++ {
		env := NewEnv()
		g.AddShard(fmt.Sprintf("s%d", i), env)
		for j := 0; j < 4; j++ {
			env.Go("sleeper", func(p *Proc) {
				defer func() { unwound++ }()
				for {
					p.Sleep(7)
				}
			})
			env.Go("short", func(p *Proc) { p.Sleep(Duration(10 * (i + j))) })
		}
	}
	g.LinkAll(5)
	g.Run(100)
	if switches, _, _ := groupCounts(g); switches == 0 {
		t.Fatal("the run never handed the baton to a process")
	}
	g.Shutdown()
	if unwound != 12 {
		t.Fatalf("unwound %d processes, want 12", unwound)
	}
	settleGoroutines(t, base)
}

// TestDeadlockReportReasons pins the deadlock report's wait reasons for the
// Queue and Resource waits, which are built once per queue and resource.
func TestDeadlockReportReasons(t *testing.T) {
	e := NewEnv()
	empty := NewQueue(e, "in", 1)
	full := NewQueue(e, "out", 1)
	res := NewResource(e, "slots", 1)
	e.Go("a", func(p *Proc) { empty.Get(p) })
	e.Go("b", func(p *Proc) { full.Put(p, 1); full.Put(p, 2) })
	e.Go("c", func(p *Proc) { res.Acquire(p, 1); res.Acquire(p, 1) })
	defer func() {
		msg := fmt.Sprint(recover())
		want := "[a (queue-get in) b (queue-put out) c (resource slots)]"
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report %q does not list %q", msg, want)
		}
	}()
	e.Run()
}

// TestBlockingAllocFree: once warm, processes that block on both sides of
// a Queue and contend for a Resource allocate nothing per wait. A
// one-shard Group steps the Env, so its pooled workers stay parked between
// steps.
func TestBlockingAllocFree(t *testing.T) {
	e := NewEnv()
	g := NewGroup(1)
	g.AddShard("blocking", e)
	ping, pong := NewQueue(e, "ping", 1), NewQueue(e, "pong", 1)
	slow := NewQueue(e, "slow", 2)
	res := NewResource(e, "slot", 1)
	item := any(&struct{}{}) // a pointer: Put boxes nothing
	forever := func(name string, step func(p *Proc)) {
		e.Go(name, func(p *Proc) {
			for {
				step(p)
			}
		})
	}
	// ping-pong blocks each side's Get in turn.
	forever("pinger", func(p *Proc) { ping.Put(p, item); pong.Get(p) })
	forever("ponger", func(p *Proc) { ping.Get(p); p.Sleep(1); pong.Put(p, item) })
	// A fast producer blocks on Put behind a slow consumer.
	forever("producer", func(p *Proc) { slow.Put(p, item) })
	forever("consumer", func(p *Proc) { p.Sleep(3); slow.Get(p) })
	// Three processes contend for one slot.
	for i := 0; i < 3; i++ {
		forever("user", func(p *Proc) { res.Acquire(p, 1); p.Sleep(2); res.Release(1) })
	}
	defer g.Shutdown()
	g.Run(2 * wheelSpan) // every calendar bucket has grown its slice
	allocs := testing.AllocsPerRun(100, func() { g.Run(g.Now() + 64) })
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 64 ns of blocking traffic, want 0", allocs)
	}
}

// FuzzShutdown decodes a small model from its input and checks that
// Shutdown unwinds exactly the processes a run leaves behind, however the
// run ended. data[0] is the cut: 0 runs to the end (a model that leaves a
// process parked ends in the deadlock report), any other value n stops a
// RunUntil at 8n ns. data[1] picks the optional panic site, a process
// body or a transfer stage over an empty path, and its delay. Each further
// byte, up to twelve, starts one process at time 0: a sleeper, a waiter on
// an Event or a WaitGroup, an Event's firer, a WaitGroup member, a user of
// a one-slot Resource, either side of a one-slot Queue, a TransferAfter
// over a pipe with latency after a delay, or a GoTry whose attempt
// declines. Whatever panic the run raises is recovered, and then every
// process whose body began must have run its deferred call exactly once,
// none other may have, the calendar must be empty and no goroutine may be
// left.
func FuzzShutdown(f *testing.F) {
	// A process parks in its transfer's delay stage, and a sleeper takes
	// the baton from it, so the stage pops, and panics on the empty path,
	// on the sleeper's goroutine: the parked process is found only by the
	// live list.
	f.Add([]byte{0, 2 + 3*3, 0 + 10*20})
	f.Add([]byte{0, 1 + 3*2, 1, 2 + 10*3, 3, 4, 5 + 10*6, 5, 6, 7, 8 + 10*4, 9})
	f.Add([]byte{40, 0, 0 + 10*9, 1, 4, 3 + 10*25, 5 + 10*3, 5 + 10*8, 6, 8, 8 + 10*12, 9 + 10*24})
	f.Add([]byte{3, 2 + 3*1, 8, 8 + 10*1, 7, 6, 6, 1, 2 + 10*1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		base := runtime.NumGoroutine()
		e := NewEnv()
		fab := NewFabric(e)
		path := []*Pipe{fab.NewPipe("link", 1e9, 50)}
		ev := NewEvent(e)
		wg := NewWaitGroup(e)
		res := NewResource(e, "slot", 1)
		q := NewQueue(e, "q", 1)
		item := any(&struct{}{})
		const bomb = "bomb"
		site, siteDelay := data[1]%3, Duration(data[1]/3)*4

		type proc struct {
			name            string
			started, defers int
		}
		var procs []*proc
		// body wraps a process function: it records the start and counts
		// the deferred call. Without a panic site a body may also defer a
		// call that parks, as a Shutdown must survive.
		body := func(name string, parkingDefer bool, fn func(p *Proc)) func(p *Proc) {
			pr := &proc{name: name}
			procs = append(procs, pr)
			return func(p *Proc) {
				pr.started++
				defer func() { pr.defers++ }()
				if parkingDefer && site == 0 {
					defer p.Sleep(1)
				}
				fn(p)
			}
		}
		switch site {
		case 1:
			e.Go("bomb", body("bomb", false, func(p *Proc) {
				p.Sleep(siteDelay)
				panic(bomb)
			}))
		case 2:
			e.Go("empty-path", body("empty-path", false, func(p *Proc) {
				fab.TransferAfter(p, siteDelay, nil, 1e3, 0)
			}))
		}
		for i, b := range data[2:min(len(data), 14)] {
			d := Duration(b/10) * 8
			name := fmt.Sprintf("p%d", i)
			switch b % 10 {
			case 0:
				e.Go(name, body(name, b%20 >= 10, func(p *Proc) { p.Sleep(d) }))
			case 1:
				e.Go(name, body(name, false, func(p *Proc) { ev.Wait(p) }))
			case 2:
				e.Go(name, body(name, false, func(p *Proc) { p.Sleep(d); ev.Fire() }))
			case 3:
				wg.Go(name, body(name, false, func(p *Proc) { p.Sleep(d) }))
			case 4:
				e.Go(name, body(name, false, func(p *Proc) { wg.Wait(p) }))
			case 5:
				e.Go(name, body(name, false, func(p *Proc) {
					res.Acquire(p, 1)
					p.Sleep(d)
					res.Release(1)
				}))
			case 6:
				e.Go(name, body(name, false, func(p *Proc) { q.Put(p, item); q.Put(p, item) }))
			case 7:
				e.Go(name, body(name, true, func(p *Proc) { q.Get(p) }))
			case 8:
				e.Go(name, body(name, false, func(p *Proc) { fab.TransferAfter(p, d, path, 1e4, 0) }))
			case 9:
				e.GoTry(name, func() bool { return false }, body(name, false, func(p *Proc) { p.Sleep(d) }))
			}
		}
		func() {
			defer func() {
				switch r := recover(); {
				case r == nil, r == bomb:
				default:
					if msg, _ := r.(string); !strings.Contains(msg, "flow must cross at least one pipe") &&
						!strings.HasPrefix(msg, "sim: deadlock") {
						t.Fatalf("run panicked with %v", r)
					}
				}
			}()
			if data[0] == 0 {
				e.Run()
			} else {
				e.RunUntil(Time(data[0]) * 8)
			}
		}()
		e.Shutdown()
		for _, pr := range procs {
			if pr.started > 1 || pr.defers != pr.started {
				t.Errorf("%s: started %d times, deferred call ran %d times", pr.name, pr.started, pr.defers)
			}
		}
		if e.Pending() != 0 {
			t.Errorf("%d events pending after Shutdown", e.Pending())
		}
		settleGoroutines(t, base)
	})
}
