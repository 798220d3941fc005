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
	if e.Pending() != 0 || len(e.blocked) != 0 {
		t.Errorf("after Shutdown: %d events, %d blocked processes", e.Pending(), len(e.blocked))
	}
	settleGoroutines(t, base)
}

// TestGroupShutdownUnwindsShards: a group's windowed run leaves processes
// parked in every shard; Group.Shutdown unwinds them all.
func TestGroupShutdownUnwindsShards(t *testing.T) {
	base := runtime.NumGoroutine()
	g := NewGroup(2)
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
		}
	}
	g.LinkAll(5)
	g.Run(100)
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
// a Queue and contend for a Resource allocate nothing per wait.
func TestBlockingAllocFree(t *testing.T) {
	e := NewEnv()
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
	defer e.Shutdown()
	e.StepUntil(2 * wheelSpan) // every calendar bucket has grown its slice
	allocs := testing.AllocsPerRun(100, func() { e.StepUntil(e.Now() + 64) })
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 64 ns of blocking traffic, want 0", allocs)
	}
}
