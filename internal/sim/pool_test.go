package sim

import (
	"testing"
	"time"
)

// The kernel pools procs, flows, events and timers behind generation
// counters. These tests pin the lifecycle invariants the pools rely on:
// stale handles must be no-ops, double recycling must be loud, and reuse
// must be indistinguishable from fresh allocation.

func TestEventResetWithWaitersPanics(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	e.Go("waiter", func(p *Proc) { ev.Wait(p) })
	e.Go("resetter", func(p *Proc) {
		p.Sleep(10) // let the waiter park first
		defer func() {
			if recover() == nil {
				t.Error("Reset with a parked waiter did not panic")
			}
			ev.Fire() // release the waiter so Run can finish
		}()
		ev.Reset()
	})
	e.Run()
}

func TestTimerCancelAfterFireIsNoop(t *testing.T) {
	e := NewEnv()
	fired := 0
	tm := e.After(10, func() { fired++ })
	// Recycle the timer's pooled event into an unrelated schedule, then
	// cancel through the stale handle: the generation check must protect
	// the new owner.
	e.Schedule(20, func() {})
	e.Run()
	tm.Cancel()
	tm.Cancel() // double cancel, equally dead
	var zero Timer
	zero.Cancel() // zero value is a no-op too
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
}

func TestTimerCancelBeforeFire(t *testing.T) {
	e := NewEnv()
	fired := false
	var tm Timer
	tm = e.After(100, func() { fired = true })
	e.Schedule(50, func() { tm.Cancel() })
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestGoRecyclesRecords pins the pooling behavior itself: a long
// sequential chain of Go processes must reuse one Proc record rather than
// allocating per spawn, and the recycled record must behave exactly like a
// fresh one.
func TestGoRecyclesRecords(t *testing.T) {
	e := NewEnv()
	const n = 64
	ran := 0
	var spawn func()
	spawn = func() {
		e.Go("worker", func(p *Proc) {
			ran++
			p.Sleep(1)
			if ran < n {
				// Spawn the successor from a callback that runs after this
				// process has finished and been recycled, so the chain
				// exercises genuine record reuse.
				e.After(2, spawn)
			}
		})
	}
	spawn()
	e.Run()
	if ran != n {
		t.Fatalf("ran %d procs, want %d", ran, n)
	}
	if got := len(e.freeProcs); got != 1 {
		t.Fatalf("free list holds %d procs after a sequential chain, want 1", got)
	}
}

// TestPooledFlowStaleAbortIsNoop drives a transfer to completion under an
// abort token, recycles the flow record into a second transfer, and only
// then fires the token: the generation snapshot in the abort's flow list
// must keep the stale hook away from the recycled flow.
func TestPooledFlowStaleAbortIsNoop(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	ab := NewAbort()
	var first, second Time
	e.Go("first", func(p *Proc) {
		p.SetAbort(ab)
		fab.Transfer(p, []*Pipe{link}, 1e6, 0)
		first = p.Now()
	})
	e.Go("second", func(p *Proc) {
		p.Sleep(Time(5 * time.Millisecond).Sub(0)) // after the first completes
		fab.Transfer(p, []*Pipe{link}, 1e6, 0)     // reuses the pooled flow record
		done := NewEvent(e)
		e.After(1, func() {
			ab.Fire() // stale: its flow ref points at a recycled record
			done.Fire()
		})
		done.Wait(p)
		fab.Transfer(p, []*Pipe{link}, 1e6, 0) // pool still healthy
		second = p.Now()
	})
	e.Run()
	if first != Time(time.Millisecond) {
		t.Fatalf("first transfer ended at %v, want 1ms", first)
	}
	// 5ms start + 1ms second transfer + 1ns abort callback + 1ms third.
	want := Time(5*time.Millisecond) + Time(2*time.Millisecond) + 1
	if second != want {
		t.Fatalf("second transfer chain ended at %v, want %v", second, want)
	}
}

// TestFlowClassResurrection retires a tagged flow class (its last flow
// completes), then starts an identical transfer: the class must come back
// through the dead-class cache with zeroed rate state, and per-tag byte
// attribution must keep accumulating across the retirement.
func TestFlowClassResurrection(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	tag := e.InternTag("tenant-a")
	xfer := func(p *Proc) {
		p.SetFlowTagID(tag)
		fab.Transfer(p, []*Pipe{link}, 1e6, 0)
	}
	e.Go("one", func(p *Proc) {
		xfer(p)                // class created, then retired at completion
		p.Sleep(Duration(1e6)) // idle gap: class stays dead
		xfer(p)                // resurrected from the dead-class cache
	})
	e.Run()
	if got := fab.TagBytes("tenant-a"); got != 2e6 {
		t.Fatalf("TagBytes = %v after resurrection, want 2e6", got)
	}
}

// TestDeadClassCacheEviction churns through more distinct retired classes
// than the cache keeps, forcing FIFO eviction, and then reuses the oldest
// signature again: eviction must only drop the index entry, never corrupt
// the accounting of resurrected or fresh classes.
func TestDeadClassCacheEviction(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	tag := e.InternTag("churn")
	e.Go("churn", func(p *Proc) {
		p.SetFlowTagID(tag)
		// Each distinct rateCap is a distinct class signature; finishing
		// each transfer retires its class.
		for i := 1; i <= 300; i++ {
			fab.Transfer(p, []*Pipe{link}, 1e3, float64(i)*1e6)
		}
		// Back to the first signature: long evicted from the cache, so this
		// re-registers from scratch.
		fab.Transfer(p, []*Pipe{link}, 1e3, 1e6)
	})
	e.Run()
	// Completion instants quantize to nanoseconds, so delivered-byte
	// integrals overshoot the nominal total by a hair per flow.
	if got := fab.TagBytes("churn"); !approx(got, 301e3, 1e-3) {
		t.Fatalf("TagBytes = %v after eviction churn, want ~301e3", got)
	}
}

// TestWorkerPanicSurfacesAtRun pins the panic-relay contract: a model
// callback that panics while a pooled worker goroutine is draining the
// calendar must still surface at the Run caller, exactly as when the main
// goroutine runs it.
func TestWorkerPanicSurfacesAtRun(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	e := NewEnv()
	// The process parks mid-calendar, so its worker goroutine is the one
	// that pops and runs the panicking callback.
	e.Go("parker", func(p *Proc) { p.Sleep(100) })
	e.Schedule(50, func() { panic("boom") })
	e.Run()
}
