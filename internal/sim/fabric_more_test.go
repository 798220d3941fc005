package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestMultiPipeConservation: flows crossing a two-stage path (per-client
// NIC then shared backbone) must, in aggregate, never exceed either
// stage's capacity and must fully use the binding stage.
func TestMultiPipeConservation(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	backbone := fab.NewPipe("backbone", 4e9, 0)
	const clients = 8
	perClient := 1e9 // NICs sum to 8 GB/s; backbone 4 GB/s binds
	bytesEach := 1e9
	var last Time
	for i := 0; i < clients; i++ {
		nic := fab.NewPipe(fmt.Sprintf("nic%d", i), perClient, 0)
		e.Go(fmt.Sprintf("c%d", i), func(p *Proc) {
			fab.Transfer(p, []*Pipe{nic, backbone}, bytesEach, 0)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	makespan := Duration(last).Seconds()
	want := float64(clients) * bytesEach / 4e9
	if math.Abs(makespan-want) > 1e-6*want {
		t.Fatalf("makespan %.4fs, want %.4fs (backbone-bound)", makespan, want)
	}
}

// TestHeterogeneousFlowsMaxMin: a mix of capped, NIC-bound and free flows
// must satisfy max-min optimality: no flow can be raised without lowering
// a smaller one.
func TestHeterogeneousFlowsMaxMin(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	shared := fab.NewPipe("shared", 10e9, 0)
	slowNic := fab.NewPipe("slow-nic", 1e9, 0)

	capped := new(Flow)
	fab.StartFlow(capped, []*Pipe{shared}, 1e15, 2e9)
	nicBound := new(Flow)
	fab.StartFlow(nicBound, []*Pipe{slowNic, shared}, 1e15, 0)
	free := new(Flow)
	fab.StartFlow(free, []*Pipe{shared}, 1e15, 0)

	e.Go("check", func(p *Proc) {
		p.Sleep(time.Millisecond)
		// water-filling: nicBound=1, capped=2, free=10-1-2=7.
		if math.Abs(nicBound.Rate()-1e9) > 1 {
			t.Errorf("nic-bound rate = %v", nicBound.Rate())
		}
		if math.Abs(capped.Rate()-2e9) > 1 {
			t.Errorf("capped rate = %v", capped.Rate())
		}
		if math.Abs(free.Rate()-7e9) > 1 {
			t.Errorf("free rate = %v", free.Rate())
		}
	})
	e.RunUntil(Time(2 * time.Millisecond))
}

// Property: across random two-stage topologies, aggregate throughput never
// exceeds the bottleneck and every flow finishes.
func TestTwoStageThroughputProperty(t *testing.T) {
	f := func(nFlows uint8, nicCapM, backCapM uint16) bool {
		n := int(nFlows%16) + 1
		nicCap := float64(nicCapM%1000+1) * 1e7
		backCap := float64(backCapM%1000+1) * 1e7
		e := NewEnv()
		fab := NewFabric(e)
		back := fab.NewPipe("back", backCap, 0)
		bytesEach := 1e8
		finished := 0
		var last Time
		for i := 0; i < n; i++ {
			nic := fab.NewPipe(fmt.Sprintf("nic%d", i), nicCap, 0)
			e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
				fab.Transfer(p, []*Pipe{nic, back}, bytesEach, 0)
				finished++
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		if finished != n {
			return false
		}
		// Aggregate throughput bound: min(n*nicCap, backCap).
		agg := float64(n) * bytesEach / Duration(last).Seconds()
		bound := math.Min(float64(n)*nicCap, backCap)
		return agg <= bound*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStaggeredArrivalsFairness: later arrivals squeeze earlier flows and
// everything still completes with exact byte accounting.
func TestStaggeredArrivalsFairness(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	ends := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * 100 * time.Millisecond)
			fab.Transfer(p, []*Pipe{link}, 3e8, 0)
			ends[i] = p.Now()
		})
	}
	e.Run()
	// f0 alone 0-100ms (100MB), shares 100-200 (50MB), three-way after.
	// All three must finish in arrival order here (equal sizes, head start).
	if !(ends[0] < ends[1] && ends[1] < ends[2]) {
		t.Fatalf("completion order broken: %v", ends)
	}
	// Total bytes = 900MB, link 1GB/s, earliest possible finish 0.9s + the
	// 200ms of partially-idle start; last end must be >= 0.9s and exactly
	// when all bytes have passed: 0.2s idle-ish accounted by integration.
	total := 9e8
	busyIntegral := 0.0
	// piecewise: 0-0.1 one flow(1e9); 0.1-0.2 two (1e9); then full till end.
	busyIntegral = 0.1*1e9 + 0.1*1e9
	rest := total - busyIntegral
	wantEnd := 0.2 + rest/1e9
	if math.Abs(Duration(ends[2]).Seconds()-wantEnd) > 1e-6 {
		t.Fatalf("last end %.4fs, want %.4fs", Duration(ends[2]).Seconds(), wantEnd)
	}
}

// TestFabricDeterminismUnderChurn: heavy join/leave churn across shared
// pipes must be bit-for-bit reproducible.
func TestFabricDeterminismUnderChurn(t *testing.T) {
	run := func() []Time {
		e := NewEnv()
		fab := NewFabric(e)
		a := fab.NewPipe("a", 2e9, 0)
		b := fab.NewPipe("b", 3e9, 0)
		var ends []Time
		for i := 0; i < 40; i++ {
			i := i
			e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
				p.Sleep(Duration(i*7) * time.Millisecond)
				pipes := []*Pipe{a}
				if i%3 == 0 {
					pipes = []*Pipe{a, b}
				} else if i%3 == 1 {
					pipes = []*Pipe{b}
				}
				fab.Transfer(p, pipes, float64(1e7*(i+1)), float64(1e8*(i%5+1)))
				ends = append(ends, p.Now())
			})
		}
		e.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at flow %d: %v vs %v", i, a[i], b[i])
		}
	}
}
