package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestCancelLifecycle walks Timer.Cancel through every state of the
// pooled event lifecycle. Events are recycled after firing or cancellation,
// so each case checks both that Cancel is a no-op where it must be and that
// the pooled object's next incarnation is unharmed.
func TestCancelLifecycle(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"zero timer", func(t *testing.T) {
			var tm Timer
			tm.Cancel() // must not panic
		}},
		{"double cancel", func(t *testing.T) {
			e := NewEnv()
			fired := false
			h := e.Schedule(10, func() { fired = true })
			other := e.Schedule(20, func() {})
			_ = other
			h.Cancel()
			h.Cancel() // second cancel is a no-op, not a double-remove
			if e.Pending() != 1 {
				t.Fatalf("Pending = %d after double cancel, want 1", e.Pending())
			}
			e.Run()
			if fired {
				t.Fatal("cancelled event fired")
			}
		}},
		{"cancel after fire", func(t *testing.T) {
			e := NewEnv()
			h := e.Schedule(10, func() {})
			e.Run()
			h.Cancel() // event already fired and was recycled; must be a no-op
			fired := false
			e.Schedule(e.Now()+5, func() { fired = true })
			e.Run()
			if !fired {
				t.Fatal("cancel-after-fire damaged the recycled event")
			}
		}},
		{"stale handle cannot cancel recycled event", func(t *testing.T) {
			e := NewEnv()
			h := e.Schedule(10*levelSpan, func() {}) // overflow: cancel recycles immediately
			stale := h
			h.Cancel()
			fired := false
			// The pool hands the just-released object to the next schedule.
			next := e.Schedule(10*levelSpan, func() { fired = true })
			if next.ev != stale.ev {
				t.Fatal("the cancelled event was not recycled")
			}
			stale.Cancel() // generation mismatch: must not touch the new event
			if e.Pending() != 1 {
				t.Fatalf("Pending = %d after stale cancel, want 1", e.Pending())
			}
			e.Run()
			if !fired {
				t.Fatal("stale handle cancelled a later schedule's event")
			}
		}},
		{"stale handle cannot cancel a slot event recycled at cascade", func(t *testing.T) {
			e := NewEnv()
			h := e.Schedule(10*wheelSpan, func() {}) // second level: cancel leaves a tombstone
			stale := h
			h.Cancel()
			e.Schedule(10*wheelSpan+64, func() {}) // same slot: its cascade recycles the tombstone
			e.Run()
			// The pool hands out the fired event's record, then the
			// tombstone's (the reference heap recycled it at the cancel and
			// reused it for the fired event: the first schedule takes it).
			fired := 0
			next := [2]Timer{e.Schedule(e.Now()+5, func() { fired++ }), e.Schedule(e.Now()+5, func() { fired++ })}
			if next[0].ev != stale.ev && next[1].ev != stale.ev {
				t.Fatal("the tombstone was not recycled")
			}
			stale.Cancel() // generation mismatch: must not touch either event
			if e.Pending() != 2 {
				t.Fatalf("Pending = %d after stale cancel, want 2", e.Pending())
			}
			e.Run()
			if fired != 2 {
				t.Fatalf("%d of 2 later events fired: a stale handle cancelled one", fired)
			}
		}},
		{"cancel near event drops Pending", func(t *testing.T) {
			e := NewEnv()
			h := e.Schedule(10, func() {}) // within the wheel window: tombstoned
			if e.Pending() != 1 {
				t.Fatalf("Pending = %d, want 1", e.Pending())
			}
			h.Cancel()
			if e.Pending() != 0 {
				t.Fatalf("Pending = %d after bucket cancel, want 0", e.Pending())
			}
			e.Run()
		}},
		{"cancel slot event drops Pending", func(t *testing.T) {
			e := NewEnv()
			h := e.Schedule(10*wheelSpan, func() {}) // past the wheel: second-level slot, tombstoned
			if e.Pending() != 1 {
				t.Fatalf("Pending = %d, want 1", e.Pending())
			}
			h.Cancel()
			if e.Pending() != 0 {
				t.Fatalf("Pending = %d after slot cancel, want 0", e.Pending())
			}
			e.Run()
			if e.Now() != 0 {
				t.Fatalf("clock at %d, want 0 (a tombstone must not advance it)", e.Now())
			}
		}},
		{"cancel far event drops Pending", func(t *testing.T) {
			e := NewEnv()
			h := e.Schedule(10*levelSpan, func() {}) // beyond the second level: overflow heap
			h.Cancel()
			if e.Pending() != 0 {
				t.Fatalf("Pending = %d after overflow cancel, want 0", e.Pending())
			}
			e.Run()
		}},
		{"cancel mid-run from an earlier event", func(t *testing.T) {
			e := NewEnv()
			fired := false
			h := e.Schedule(20, func() { fired = true })
			e.Schedule(10, func() { h.Cancel() })
			e.Run()
			if fired {
				t.Fatal("event fired despite mid-run cancel")
			}
			if e.Now() != 10 {
				t.Fatalf("clock at %d, want 10 (cancelled event must not advance it)", e.Now())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestDeadlockReportSorted pins the deadlock diagnostic to name order. The
// seed kept blocked processes in a map, so the report order changed from run
// to run; it is now sorted and therefore stable.
func TestDeadlockReportSorted(t *testing.T) {
	e := NewEnv()
	stuck := NewEvent(e)
	for _, name := range []string{"zeta", "alpha", "mike"} {
		e.Go(name, func(p *Proc) { stuck.Wait(p) })
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on deadlock")
		}
		msg := fmt.Sprint(r)
		want := "[alpha (event) mike (event) zeta (event)]"
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report %q does not list processes sorted as %q", msg, want)
		}
	}()
	e.Run()
}

// TestWorkerRecycling verifies that sequential process churn reuses one
// parked goroutine instead of spawning one per process, and that the pool is
// dismissed when the run returns.
func TestWorkerRecycling(t *testing.T) {
	e := NewEnv()
	const n = 50
	done := 0
	for i := 0; i < n; i++ {
		at := Time(i * 100)
		e.Schedule(at, func() {
			e.Go("worker", func(p *Proc) {
				p.Sleep(10) // finishes well before the next spawn
				done++
			})
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("ran %d processes, want %d", done, n)
	}
	if e.spawnedWorkers != 1 {
		t.Fatalf("spawned %d goroutines for %d sequential processes, want 1", e.spawnedWorkers, n)
	}
	if len(e.freeWorkers) != 0 {
		t.Fatalf("%d workers still pooled after Run", len(e.freeWorkers))
	}
}

// TestWorkerPoolAcrossRuns checks that recycling also spans Run calls on the
// same Env: concurrent processes need one goroutine each, but a second batch
// after the first Run reuses nothing stale and leaves no residue.
func TestWorkerPoolAcrossRuns(t *testing.T) {
	e := NewEnv()
	ran := 0
	spawn := func(k int) {
		for i := 0; i < k; i++ {
			e.Go("p", func(p *Proc) {
				p.Sleep(5)
				ran++
			})
		}
	}
	spawn(8)
	e.Run()
	if e.spawnedWorkers != 8 {
		t.Fatalf("first batch spawned %d goroutines, want 8", e.spawnedWorkers)
	}
	spawn(8)
	e.Run()
	if ran != 16 {
		t.Fatalf("ran %d processes, want 16", ran)
	}
	if len(e.freeWorkers) != 0 {
		t.Fatalf("%d workers still pooled after second Run", len(e.freeWorkers))
	}
}
