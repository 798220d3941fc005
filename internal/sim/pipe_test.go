package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// close enough for float bandwidth math quantized to nanoseconds.
func approx(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*want
}

func TestSingleFlowFullCapacity(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0) // 1 GB/s
	var done Time
	e.Go("xfer", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 5e8, 0) // 500 MB
		done = p.Now()
	})
	e.Run()
	if !approx(Duration(done).Seconds(), 0.5, 1e-6) {
		t.Fatalf("500MB over 1GB/s took %v, want 500ms", Duration(done))
	}
}

func TestTwoFlowsShareEvenly(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	var ends []Time
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("x%d", i), func(p *Proc) {
			fab.Transfer(p, []*Pipe{link}, 5e8, 0)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// Two 500 MB flows sharing 1 GB/s: both finish at t=1s.
	for _, end := range ends {
		if !approx(Duration(end).Seconds(), 1.0, 1e-6) {
			t.Fatalf("end = %v, want 1s", Duration(end))
		}
	}
}

func TestDepartureSpeedsUpRemainder(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	var shortEnd, longEnd Time
	e.Go("short", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e8, 0) // 100 MB
		shortEnd = p.Now()
	})
	e.Go("long", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 4e8, 0) // 400 MB
		longEnd = p.Now()
	})
	e.Run()
	// Shared until short finishes: 100MB at 500MB/s = 0.2s. Long has done
	// 100MB too, then 300MB at full 1GB/s = 0.3s more -> 0.5s total.
	if !approx(Duration(shortEnd).Seconds(), 0.2, 1e-6) {
		t.Fatalf("short end = %v, want 0.2s", Duration(shortEnd))
	}
	if !approx(Duration(longEnd).Seconds(), 0.5, 1e-6) {
		t.Fatalf("long end = %v, want 0.5s", Duration(longEnd))
	}
}

func TestPerFlowRateCap(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	var end Time
	e.Go("capped", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e8, 1e8) // 100 MB at <=100 MB/s
		end = p.Now()
	})
	e.Run()
	if !approx(Duration(end).Seconds(), 1.0, 1e-6) {
		t.Fatalf("capped flow end = %v, want 1s", Duration(end))
	}
}

func TestCapLeavesHeadroomForOthers(t *testing.T) {
	// One capped flow plus one open flow: the open flow should get the
	// remaining capacity, not just half.
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	var openEnd Time
	e.Go("capped", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 2e8, 2e8) // 200MB/s cap for 1s
	})
	e.Go("open", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 8e8, 0)
		openEnd = p.Now()
	})
	e.Run()
	// open flow gets 800 MB/s while capped is active -> 800MB in 1s.
	if !approx(Duration(openEnd).Seconds(), 1.0, 1e-6) {
		t.Fatalf("open end = %v, want 1s", Duration(openEnd))
	}
}

func TestBottleneckIsMinAlongPath(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	fast := fab.NewPipe("fast", 10e9, 0)
	slow := fab.NewPipe("slow", 1e9, 0)
	var end Time
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{fast, slow}, 1e9, 0)
		end = p.Now()
	})
	e.Run()
	if !approx(Duration(end).Seconds(), 1.0, 1e-6) {
		t.Fatalf("end = %v, want 1s (bottleneck 1GB/s)", Duration(end))
	}
}

func TestUnbottleneckedPipeRedistributes(t *testing.T) {
	// Flow A crosses pipes L1(1GB/s)+shared(10GB/s); flow B crosses only
	// shared. Max-min: A gets 1 GB/s (bound by L1), B gets 9 GB/s.
	e := NewEnv()
	fab := NewFabric(e)
	l1 := fab.NewPipe("l1", 1e9, 0)
	shared := fab.NewPipe("shared", 10e9, 0)
	var aEnd, bEnd Time
	e.Go("a", func(p *Proc) {
		fab.Transfer(p, []*Pipe{l1, shared}, 1e9, 0)
		aEnd = p.Now()
	})
	e.Go("b", func(p *Proc) {
		fab.Transfer(p, []*Pipe{shared}, 9e9, 0)
		bEnd = p.Now()
	})
	e.Run()
	if !approx(Duration(aEnd).Seconds(), 1.0, 1e-6) {
		t.Fatalf("a end = %v, want 1s", Duration(aEnd))
	}
	if !approx(Duration(bEnd).Seconds(), 1.0, 1e-6) {
		t.Fatalf("b end = %v, want 1s (9GB at 9GB/s)", Duration(bEnd))
	}
}

func TestPathLatencyChargedOnce(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 10*time.Millisecond)
	var end Time
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e9, 0)
		end = p.Now()
	})
	e.Run()
	if !approx(Duration(end).Seconds(), 1.01, 1e-6) {
		t.Fatalf("end = %v, want 1.01s", Duration(end))
	}
}

func TestSetCapacityMidFlow(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	var end Time
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e9, 0)
		end = p.Now()
	})
	e.Go("squeeze", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		link.SetCapacity(0.5e9)
	})
	e.Run()
	// 500MB at 1GB/s, then 500MB at 0.5GB/s => 0.5 + 1.0 = 1.5s.
	if !approx(Duration(end).Seconds(), 1.5, 1e-6) {
		t.Fatalf("end = %v, want 1.5s", Duration(end))
	}
}

func TestManySymmetricFlowsAggregateToCapacity(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 8e9, 0)
	const n = 64
	perFlow := 1e9
	var lastEnd Time
	for i := 0; i < n; i++ {
		e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
			fab.Transfer(p, []*Pipe{link}, perFlow, 0)
			if p.Now() > lastEnd {
				lastEnd = p.Now()
			}
		})
	}
	e.Run()
	want := float64(n) * perFlow / 8e9
	if !approx(Duration(lastEnd).Seconds(), want, 1e-6) {
		t.Fatalf("makespan = %v, want %.3fs", Duration(lastEnd), want)
	}
}

func TestZeroByteTransferIsInstant(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 0, 0)
		if p.Now() != 0 {
			t.Errorf("zero-byte transfer advanced clock to %v", p.Now())
		}
	})
	e.Run()
}

// Property: conservation — for any flow sizes, total bytes moved equals the
// link capacity integrated over the makespan when the link is the common
// bottleneck (all flows start at t=0 and keep the link busy until they
// finish; the last completion time >= total/capacity).
func TestConservationProperty(t *testing.T) {
	f := func(sizes []uint32) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		e := NewEnv()
		fab := NewFabric(e)
		cap := 1e9
		link := fab.NewPipe("link", cap, 0)
		total := 0.0
		var makespan Time
		for i, s := range sizes {
			bytes := float64(s%1000+1) * 1e6
			total += bytes
			e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
				fab.Transfer(p, []*Pipe{link}, bytes, 0)
				if p.Now() > makespan {
					makespan = p.Now()
				}
			})
		}
		e.Run()
		want := total / cap
		return approx(Duration(makespan).Seconds(), want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-min fairness — with one shared bottleneck and per-flow caps,
// measured single-instant rates match the analytic water-filling solution.
func TestWaterFillingProperty(t *testing.T) {
	f := func(caps []uint16) bool {
		if len(caps) == 0 || len(caps) > 16 {
			return true
		}
		e := NewEnv()
		fab := NewFabric(e)
		capacity := 1e9
		link := fab.NewPipe("link", capacity, 0)
		flows := make([]*Flow, len(caps))
		capVals := make([]float64, len(caps))
		for i, c := range caps {
			capVals[i] = float64(c%100+1) * 1e7 // 10..1000 MB/s
			flows[i] = new(Flow)
			fab.StartFlow(flows[i], []*Pipe{link}, 1e15, capVals[i])
		}
		var ok bool
		e.Go("check", func(p *Proc) {
			p.Sleep(time.Millisecond) // let the solve event run
			// analytic water-filling
			want := waterFill(capacity, capVals)
			ok = true
			for i, fl := range flows {
				if math.Abs(fl.Rate()-want[i]) > 1 {
					ok = false
				}
			}
		})
		e.RunUntil(Time(2 * time.Millisecond))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// waterFill is an independent reference implementation of single-link
// max-min fair allocation with per-flow caps.
func waterFill(capacity float64, caps []float64) []float64 {
	rates := make([]float64, len(caps))
	frozen := make([]bool, len(caps))
	remaining := capacity
	left := len(caps)
	for left > 0 {
		share := remaining / float64(left)
		any := false
		for i := range caps {
			if !frozen[i] && caps[i] <= share {
				rates[i] = caps[i]
				remaining -= caps[i]
				frozen[i] = true
				left--
				any = true
			}
		}
		if !any {
			for i := range caps {
				if !frozen[i] {
					rates[i] = share
					frozen[i] = true
					left--
				}
			}
			remaining = 0
		}
	}
	return rates
}

func TestResourceFIFO(t *testing.T) {
	e := NewEnv()
	res := NewResource(e, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Duration(i)) // stagger arrivals
			res.Acquire(p, 1)
			order = append(order, i)
			p.Sleep(100)
			res.Release(1)
		})
	}
	e.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestResourceLargeRequestNotStarved(t *testing.T) {
	e := NewEnv()
	res := NewResource(e, "r", 4)
	var bigAt Time
	e.Go("hold", func(p *Proc) {
		res.Acquire(p, 4)
		p.Sleep(100)
		res.Release(4)
	})
	e.Go("big", func(p *Proc) {
		p.Sleep(1)
		res.Acquire(p, 3)
		bigAt = p.Now()
		res.Release(3)
	})
	e.Go("small", func(p *Proc) {
		p.Sleep(2)
		res.Acquire(p, 1) // arrives after big; must not jump the queue
		if bigAt == 0 {
			t.Error("small acquired before big despite FIFO")
		}
		res.Release(1)
	})
	e.Run()
	if bigAt != 100 {
		t.Fatalf("big acquired at %v, want 100", bigAt)
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	e := NewEnv()
	q := NewQueue(e, "q", 2)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Put(p, i)
		}
		q.Close()
	})
	e.Go("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v.(int))
			p.Sleep(10)
		}
	})
	e.Run()
	if len(got) != 10 {
		t.Fatalf("consumed %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	e := NewEnv()
	q := NewQueue(e, "q", 1)
	var putDone Time
	e.Go("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2) // blocks until consumer takes item 1
		putDone = p.Now()
	})
	e.Go("consumer", func(p *Proc) {
		p.Sleep(500)
		if _, ok := q.Get(p); !ok {
			t.Error("queue closed unexpectedly")
		}
	})
	e.Run()
	if putDone != 500 {
		t.Fatalf("second put completed at %v, want 500", putDone)
	}
}
