package sim

import (
	"testing"
	"time"
)

// An aborted transfer must unwind its waiter immediately and return its
// bandwidth: the surviving flow speeds up from the abort instant.
func TestAbortFlowFreesBandwidth(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	ab := NewAbort()
	var victimEnd, survivorEnd Time
	e.Go("victim", func(p *Proc) {
		p.SetAbort(ab)
		fab.Transfer(p, []*Pipe{link}, 1e9, 0)
		victimEnd = p.Now()
	})
	e.Go("survivor", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e9, 0)
		survivorEnd = p.Now()
	})
	e.After(Duration(250*time.Millisecond), ab.Fire)
	e.Run()
	if got := Duration(victimEnd).Seconds(); !approx(got, 0.25, 1e-6) {
		t.Fatalf("victim unwound at %v, want 250ms", Duration(victimEnd))
	}
	// Survivor: 125 MB delivered by t=0.25s at the half share, remaining
	// 875 MB at full 1 GB/s -> 0.25 + 0.875 = 1.125s.
	if got := Duration(survivorEnd).Seconds(); !approx(got, 1.125, 1e-6) {
		t.Fatalf("survivor finished at %v, want 1.125s", Duration(survivorEnd))
	}
	if fab.liveFlows != 0 {
		t.Fatalf("liveFlows = %d after drain, want 0", fab.liveFlows)
	}
	if link.ActiveFlows() != 0 {
		t.Fatalf("pipe still reports %d active flows", link.ActiveFlows())
	}
}

// Aborting before the transfer starts must skip it entirely, and a token
// fired during the path's propagation latency must stop the flow from ever
// joining the fabric.
func TestAbortBeforeAndDuringLatency(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, Duration(10*time.Millisecond))
	pre := NewAbort()
	pre.Fire()
	var preEnd Time
	e.Go("pre", func(p *Proc) {
		p.SetAbort(pre)
		fab.Transfer(p, []*Pipe{link}, 1e9, 0)
		preEnd = p.Now()
	})
	mid := NewAbort()
	var midEnd Time
	e.Go("mid", func(p *Proc) {
		p.SetAbort(mid)
		fab.Transfer(p, []*Pipe{link}, 1e9, 0)
		midEnd = p.Now()
	})
	e.After(Duration(5*time.Millisecond), mid.Fire)
	e.Run()
	if preEnd != 0 {
		t.Fatalf("pre-fired abort still blocked until %v", Duration(preEnd))
	}
	if got := Duration(midEnd).Seconds(); !approx(got, 0.010, 1e-9) {
		t.Fatalf("latency-phase abort unwound at %v, want 10ms", Duration(midEnd))
	}
	if fab.liveFlows != 0 {
		t.Fatalf("aborted transfers left %d live flows", fab.liveFlows)
	}
}

// Abort after completion is a no-op, double-fire is a no-op, and a nil
// token never fires.
func TestAbortIdempotence(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	ab := NewAbort()
	var end Time
	e.Go("xfer", func(p *Proc) {
		p.SetAbort(ab)
		fab.Transfer(p, []*Pipe{link}, 1e8, 0) // finishes at 100ms
		end = p.Now()
	})
	e.After(Duration(500*time.Millisecond), func() {
		ab.Fire()
		ab.Fire()
	})
	e.Run()
	if got := Duration(end).Seconds(); !approx(got, 0.1, 1e-6) {
		t.Fatalf("completed transfer perturbed by late abort: end %v", Duration(end))
	}
	if !ab.Fired() {
		t.Fatal("token did not report fired")
	}
	var nilAb *Abort
	if nilAb.Fired() {
		t.Fatal("nil token reports fired")
	}
	nilAb.Fire() // must not panic
}

// Aborting one member of a multi-flow class keeps the class's remaining
// members exact: three same-signature flows, the middle-started one
// aborted, the other two still complete at the correct instants.
func TestAbortWithinFlowClass(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 3e9, 0)
	ab := NewAbort()
	ends := make([]Time, 3)
	sizes := []float64{3e9, 6e9, 3e9} // flow 1 is the abort victim
	for i := range sizes {
		i := i
		e.Go("xfer", func(p *Proc) {
			if i == 1 {
				p.SetAbort(ab)
			}
			fab.Transfer(p, []*Pipe{link}, sizes[i], 0)
			ends[i] = p.Now()
		})
	}
	e.After(Duration(time.Second), ab.Fire)
	e.Run()
	// Until t=1s each of the three class members runs at 1 GB/s. The abort
	// removes flow 1; flows 0 and 2 each have 2 GB left and run at 1.5 GB/s,
	// finishing together at 1s + 2/1.5 s.
	if got := Duration(ends[1]).Seconds(); !approx(got, 1.0, 1e-6) {
		t.Fatalf("victim unwound at %v, want 1s", Duration(ends[1]))
	}
	want := 1.0 + 2.0/1.5
	for _, i := range []int{0, 2} {
		if got := Duration(ends[i]).Seconds(); !approx(got, want, 1e-6) {
			t.Fatalf("survivor %d finished at %v, want %.4fs", i, Duration(ends[i]), want)
		}
	}
}

// The calendar must drain to the same state whether a request is aborted
// via the token or runs to completion with no token attached — i.e. the
// abort path leaves no stray kernel state behind.
func TestAbortLeavesNoResidue(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	for i := 0; i < 8; i++ {
		ab := NewAbort()
		e.Go("xfer", func(p *Proc) {
			p.SetAbort(ab)
			fab.Transfer(p, []*Pipe{link}, 1e9, 0)
		})
		e.After(Duration((i+1)*100)*Duration(time.Millisecond), ab.Fire)
	}
	e.Run()
	if fab.liveFlows != 0 || len(fab.classes) != 0 {
		t.Fatalf("fabric retained %d flows / %d classes", fab.liveFlows, len(fab.classes))
	}
	if e.Pending() != 0 {
		t.Fatalf("calendar retained %d events", e.Pending())
	}
}
