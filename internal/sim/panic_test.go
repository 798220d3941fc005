package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestPanicSurfacesAtRun raises a panic at every site where the kernel runs
// code — a process body, a calendar callback, a transfer stage (of a
// TransferThen, or of a process parked in TransferAfter), a GoTry attempt,
// a Notify continuation and a group's delivery — on the Run caller's
// goroutine and on a process goroutine, on an Env and on a two-shard
// Group, where the process goroutine may be stepping the other shard.
// Every row recovers the original value at Run or Group.Run, and
// afterwards Shutdown returns and leaves no goroutine behind.
func TestPanicSurfacesAtRun(t *testing.T) {
	sites := []struct {
		name string
		// plant files code on e that panics with v at time 10 or earlier.
		plant func(e *Env, v any)
		// kernel, when set, is the kernel's own panic message, which the
		// site raises in place of v: it runs no model code.
		kernel string
		// worker: the site runs only on a process goroutine. group: the
		// site exists only in a group.
		worker, group bool
	}{
		{name: "body", worker: true, plant: func(e *Env, v any) {
			e.Go("body", func(p *Proc) {
				p.Sleep(10)
				panic(v)
			})
		}},
		{name: "callback", plant: func(e *Env, v any) { e.After(10, func() { panic(v) }) }},
		{name: "transfer", kernel: "flow must cross at least one pipe", plant: func(e *Env, v any) {
			NewFabric(e).TransferThen(10, nil, 1e3, 0, 0, func() {})
		}},
		{name: "parked-transfer", kernel: "flow must cross at least one pipe", plant: func(e *Env, v any) {
			// The client parks in its transfer's delay stage and the
			// sleeper takes the baton from it, so the stage pops on
			// another goroutine: the client stays parked, live, and only
			// Shutdown can unwind it.
			fab := NewFabric(e)
			e.Go("client", func(p *Proc) { fab.TransferAfter(p, 10, nil, 1e3, 0) })
			e.Go("sleeper", func(p *Proc) { p.Sleep(1000) })
		}},
		{name: "attempt", plant: func(e *Env, v any) { e.GoTry("attempt", func() bool { panic(v) }, nil) }},
		{name: "continuation", plant: func(e *Env, v any) {
			ev := NewEvent(e)
			ev.Notify(func() { panic(v) })
			e.After(10, ev.Fire)
		}},
		{name: "delivery", group: true, kernel: "conservative synchronization violated", plant: func(e *Env, v any) {
			// A message due before the barrier it is delivered at, which
			// only a kernel bug could send.
			e.After(10, func() {
				e.group.pending = append(e.group.pending, xmsg{at: e.now, src: 0, dst: 1, fn: func() {}})
			})
		}},
	}
	// Where the panic is raised: the Run caller drains the calendar while
	// no process holds the baton; a host process that plants the site and
	// sleeps past it drains it on its own goroutine, and one that returns
	// at once on its pooled worker; in a group, a host on shard 0 steps
	// shard 1, where every site is planted.
	wheres := []struct {
		name  string
		group bool
		host  int  // the shard the host process runs on, -1 for none
		ends  bool // the host returns instead of sleeping past the site
	}{
		{"env/caller", false, -1, false},
		{"env/worker", false, 0, false},
		{"env/pooled-worker", false, 0, true},
		{"group/caller", true, -1, false},
		{"group/worker", true, 1, false},
		{"group/pooled-worker", true, 1, true},
		{"group/other-shard-worker", true, 0, false},
		{"group/other-shard-pooled-worker", true, 0, true},
	}
	for _, site := range sites {
		for _, where := range wheres {
			if site.group && !where.group || site.worker && where.host < 0 {
				continue
			}
			t.Run(site.name+"/"+where.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				envs := []*Env{NewEnv()}
				run, shutdown := func() { envs[0].Run() }, envs[0].Shutdown
				if where.group {
					g := NewGroup(1)
					envs = append(envs, NewEnv())
					for i, e := range envs {
						g.AddShard(fmt.Sprint("s", i), e)
					}
					g.LinkAll(100)
					run, shutdown = func() { g.Run(1000) }, g.Shutdown
				}
				target := envs[len(envs)-1]
				v := site.name + " panic on " + where.name
				hostPlants := where.host >= 0 && envs[where.host] == target
				if where.host >= 0 {
					envs[where.host].Go("host", func(p *Proc) {
						if hostPlants {
							site.plant(target, v)
						}
						if !where.ends {
							p.Sleep(1000)
						}
					})
				}
				if !hostPlants {
					site.plant(target, v)
				}
				defer func() {
					r := recover()
					if site.kernel != "" {
						if msg, _ := r.(string); !strings.Contains(msg, site.kernel) {
							t.Fatalf("recovered %v, want the kernel's %q panic", r, site.kernel)
						}
					} else if r != v {
						t.Fatalf("recovered %v, want %q", r, v)
					}
					shutdown()
					settleGoroutines(t, base)
				}()
				run()
				t.Fatal("run returned despite the panic")
			})
		}
	}
}
