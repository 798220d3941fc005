package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEnv()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of scheduling order at %d: %v", i, got[:i+1])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEnv()
	fired := false
	h := e.Schedule(10, func() { fired = true })
	h.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var wakeTimes []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		wakeTimes = append(wakeTimes, p.Now())
		p.Sleep(50 * time.Millisecond)
		wakeTimes = append(wakeTimes, p.Now())
	})
	e.Run()
	if len(wakeTimes) != 2 {
		t.Fatalf("wakeups = %d, want 2", len(wakeTimes))
	}
	if wakeTimes[0] != Time(100*time.Millisecond) || wakeTimes[1] != Time(150*time.Millisecond) {
		t.Fatalf("wake times = %v", wakeTimes)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv()
	var order []string
	mk := func(name string, d Duration) {
		e.Go(name, func(p *Proc) {
			p.Sleep(d)
			order = append(order, name)
		})
	}
	mk("c", 30)
	mk("a", 10)
	mk("b", 20)
	e.Run()
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("order = %v", order)
	}
}

func TestEventBroadcast(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			ev.Wait(p)
			woke++
			if p.Now() != Time(42) {
				t.Errorf("woke at %v, want 42", p.Now())
			}
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(42)
		ev.Fire()
	})
	e.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := NewEnv()
	ev := NewEvent(e)
	ev.Fire()
	ran := false
	e.Go("late", func(p *Proc) {
		ev.Wait(p) // must not block
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("waiter on fired event blocked")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEnv()
	wg := NewWaitGroup(e)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		d := Duration(i) * 10
		wg.Go(fmt.Sprintf("w%d", i), func(p *Proc) { p.Sleep(d) })
	}
	e.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 30 {
		t.Fatalf("joiner resumed at %v, want 30", doneAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEnv()
	ev := NewEvent(e)
	e.Go("stuck", func(p *Proc) { ev.Wait(p) }) // nobody fires ev
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	var ticks []Time
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10)
			ticks = append(ticks, p.Now())
		}
	})
	e.RunUntil(35)
	if len(ticks) != 3 {
		t.Fatalf("ticks before t=35: %d, want 3", len(ticks))
	}
	if e.Now() != 35 {
		t.Fatalf("clock = %v, want exactly 35", e.Now())
	}
}

// TestDeterminism runs the same mixed workload twice and requires identical
// traces: the kernel must not leak goroutine or map scheduling randomness.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		res := NewResource(e, "srv", 2)
		q := NewQueue(e, "q", 4)
		fab := NewFabric(e)
		link := fab.NewPipe("link", 1e9, 0)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("p%d", i)
			i := i
			e.Go(name, func(p *Proc) {
				p.Sleep(Duration(i%3) * time.Millisecond)
				res.Acquire(p, 1)
				fab.Transfer(p, []*Pipe{link}, 1e6*float64(1+i), 0)
				res.Release(1)
				q.Put(p, i)
				log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
			})
		}
		e.Go("drain", func(p *Proc) {
			for i := 0; i < 8; i++ {
				v, ok := q.Get(p)
				if !ok {
					t.Fatal("queue closed early")
				}
				log = append(log, fmt.Sprintf("got%v@%d", v, p.Now()))
			}
		})
		e.Run()
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic runs:\n%v\n%v", a, b)
	}
}

// Property: for any set of sleep durations, processes complete in sorted
// order of duration and the final clock equals the maximum.
func TestSleepOrderingProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEnv()
		var finished []Duration
		for i, d := range durs {
			d := Duration(d)
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, d)
			})
		}
		end := e.Run()
		var max Duration
		for i, d := range finished {
			if d > max {
				max = d
			}
			if i > 0 && finished[i-1] > d {
				return false // completed out of order
			}
		}
		return end == Time(max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
