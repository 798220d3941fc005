package sim

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// --- flow-class aggregation (white-box) ---

func TestIdenticalFlowsAggregateIntoOneClass(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	nic := fab.NewPipe("nic", 1e9, 0)
	for i := 0; i < 100; i++ {
		fab.StartFlow(new(Flow), []*Pipe{nic, link}, 1e9, 0)
	}
	if got := len(fab.classes); got != 1 {
		t.Fatalf("100 identical flows produced %d classes, want 1", got)
	}
	if got := fab.classes[0].count; got != 100 {
		t.Fatalf("class count = %d, want 100", got)
	}
	// A different cap or a different path must open a new class.
	fab.StartFlow(new(Flow), []*Pipe{nic, link}, 1e9, 5e8)
	fab.StartFlow(new(Flow), []*Pipe{link}, 1e9, 0)
	if got := len(fab.classes); got != 3 {
		t.Fatalf("distinct signatures produced %d classes, want 3", got)
	}
	e.RunUntil(Time(time.Millisecond))
	// All members of the big class share one rate.
	if r := fab.classes[0].rate; r <= 0 {
		t.Fatalf("class rate = %v", r)
	}
}

func TestClassRetiresWhenLastMemberFinishes(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	e.Go("a", func(p *Proc) { fab.Transfer(p, []*Pipe{link}, 1e8, 0) })
	e.Go("b", func(p *Proc) { fab.Transfer(p, []*Pipe{link}, 1e8, 0) })
	e.Run()
	if got := len(fab.classes); got != 0 {
		t.Fatalf("%d classes alive after all flows finished, want 0", got)
	}
	if got := link.ActiveFlows(); got != 0 {
		t.Fatalf("link reports %d active flows, want 0", got)
	}
	if got := len(link.classes); got != 0 {
		t.Fatalf("link still registers %d classes, want 0", got)
	}
}

// --- scoped re-solve (white-box) ---

// TestScopedResolveLeavesOtherComponentUntouched: churn on one component
// must not re-visit pipes of a disconnected component.
func TestScopedResolveLeavesOtherComponentUntouched(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	a := fab.NewPipe("a", 1e9, 0)
	b := fab.NewPipe("b", 1e9, 0)
	e.Go("long-on-a", func(p *Proc) { fab.Transfer(p, []*Pipe{a}, 1e9, 0) })
	var genAfterSetup uint64
	e.Go("churn-on-b", func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		genAfterSetup = a.visitGen
		for i := 0; i < 5; i++ {
			fab.Transfer(p, []*Pipe{b}, 1e7, 0)
		}
		if a.visitGen != genAfterSetup {
			t.Errorf("pipe a was re-visited (gen %d -> %d) by churn on pipe b",
				genAfterSetup, a.visitGen)
		}
	})
	e.Run()
}

// TestScopedResolveMergesComponents: a flow bridging two previously
// independent components must trigger a joint re-solve with correct rates.
func TestScopedResolveMergesComponents(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	a := fab.NewPipe("a", 1e9, 0)
	b := fab.NewPipe("b", 3e9, 0)
	flA := new(Flow)
	fab.StartFlow(flA, []*Pipe{a}, 1e15, 0)
	flB := new(Flow)
	fab.StartFlow(flB, []*Pipe{b}, 1e15, 0)
	var bridge *Flow
	e.Go("bridge", func(p *Proc) {
		p.Sleep(time.Millisecond)
		bridge = new(Flow)
		fab.StartFlow(bridge, []*Pipe{a, b}, 1e15, 0)
		p.Sleep(time.Millisecond)
		// Max-min: a (1 GB/s) splits 0.5/0.5; b grants the bridge 0.5 and
		// flB the remaining 2.5.
		if math.Abs(flA.Rate()-5e8) > 1 || math.Abs(bridge.Rate()-5e8) > 1 {
			t.Errorf("a-side rates: flA=%v bridge=%v, want 5e8 each", flA.Rate(), bridge.Rate())
		}
		if math.Abs(flB.Rate()-2.5e9) > 1 {
			t.Errorf("flB rate = %v, want 2.5e9", flB.Rate())
		}
	})
	e.RunUntil(Time(3 * time.Millisecond))
}

// --- solver edge cases ---

// TestRateCapExactlyAtPipeShare: a cap exactly equal to the binding pipe
// share must freeze cleanly (no infinite loop, same rate either way).
func TestRateCapExactlyAtPipeShare(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 9e8, 0)
	capped := new(Flow)
	fab.StartFlow(capped, []*Pipe{link}, 1e15, 3e8) // cap == fair share of 3
	open1 := new(Flow)
	fab.StartFlow(open1, []*Pipe{link}, 1e15, 0)
	open2 := new(Flow)
	fab.StartFlow(open2, []*Pipe{link}, 1e15, 0)
	e.Go("check", func(p *Proc) {
		p.Sleep(time.Millisecond)
		for _, fl := range []*Flow{capped, open1, open2} {
			if math.Abs(fl.Rate()-3e8) > 1 {
				t.Errorf("rate = %v, want 3e8", fl.Rate())
			}
		}
	})
	e.RunUntil(Time(2 * time.Millisecond))
}

// TestSetCapacityOnSaturatedPipe: shrinking and restoring a saturated
// pipe's capacity mid-flight must re-allocate exactly.
func TestSetCapacityOnSaturatedPipe(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
			fab.Transfer(p, []*Pipe{link}, 1e9, 0)
			ends[i] = p.Now()
		})
	}
	e.Go("squeeze", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		link.SetCapacity(5e8) // halve while both flows saturate it
		p.Sleep(1 * time.Second)
		link.SetCapacity(1e9) // restore
	})
	e.Run()
	// Each flow: 250 MB in the first 0.5 s (half of 1 GB/s), 250 MB in the
	// next 1 s (half of 0.5 GB/s), remaining 500 MB at 0.5 GB/s -> 2.5 s.
	for i, end := range ends {
		if got := Duration(end).Seconds(); math.Abs(got-2.5) > 1e-6 {
			t.Fatalf("flow %d ended at %.6fs, want 2.5s", i, got)
		}
	}
}

// TestZeroRemainingAbsorption: a flow whose residual byte count falls into
// the float-absorption window at another flow's completion event must
// complete at that same event, not a nanosecond later.
func TestZeroRemainingAbsorption(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	var endA, endB Time
	e.Go("a", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e8, 0)
		endA = p.Now()
	})
	e.Go("b", func(p *Proc) {
		// 5e-4 bytes more than a: after a finishes, b's residual is inside
		// the 1e-3 absorption window and must be forgiven immediately.
		fab.Transfer(p, []*Pipe{link}, 1e8+5e-4, 0)
		endB = p.Now()
	})
	e.Run()
	if endA != endB {
		t.Fatalf("absorption failed: a ended at %v, b at %v", endA, endB)
	}
}

// TestSubSlackTransferCompletesImmediately: a transfer smaller than the
// absorption slack is treated as instantaneous.
func TestSubSlackTransferCompletesImmediately(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	e.Go("tiny", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 5e-4, 0)
		if p.Now() != 0 {
			t.Errorf("sub-slack transfer took until %v", p.Now())
		}
	})
	e.Run()
}

// --- golden determinism ---

// churnScenario drives a deliberately nasty mixed workload: shared-class
// bursts, capped flows, a component bridge, capacity churn on a saturated
// pipe, and staggered arrivals. It returns every flow's completion time in
// start order.
func churnScenario() []Time {
	e := NewEnv()
	fab := NewFabric(e)
	nicA := fab.NewPipe("nicA", 2e9, 0)
	nicB := fab.NewPipe("nicB", 3e9, 0)
	back := fab.NewPipe("back", 4e9, 0)
	other := fab.NewPipe("other", 1e9, 0) // separate component most of the time
	ends := make([]Time, 24)
	for i := 0; i < 24; i++ {
		i := i
		e.Go(fmt.Sprintf("f%d", i), func(p *Proc) {
			p.Sleep(Duration(i%7) * 11 * time.Millisecond)
			var pipes []*Pipe
			var rateCap float64
			switch i % 4 {
			case 0:
				pipes = []*Pipe{nicA, back} // shared class (burst of 6)
			case 1:
				pipes = []*Pipe{nicB, back}
				rateCap = 4e8
			case 2:
				pipes = []*Pipe{other}
			default:
				pipes = []*Pipe{nicA, nicB, back} // long path, bridges all
			}
			fab.Transfer(p, pipes, float64(3e7*(i+1)), rateCap)
			ends[i] = p.Now()
		})
	}
	e.Go("churn", func(p *Proc) {
		p.Sleep(40 * time.Millisecond)
		back.SetCapacity(2e9)
		p.Sleep(40 * time.Millisecond)
		back.SetCapacity(4e9)
	})
	e.Run()
	return ends
}

// goldenChurnEnds pins the exact virtual-ns completion times of
// churnScenario as produced by the flow-class solver. Any change to solver
// arithmetic, iteration order or event scheduling that shifts a single
// nanosecond fails this test.
var goldenChurnEnds = []int64{
	94899185, 214590088, 541100001, 700815851, 864452215, 565593751,
	1195183334, 1166429488, 1330429488, 841544800, 1646583334, 1687058276,
	1782135199, 1169031251, 1946083334, 1973169581, 2044169581, 1452544800,
	2231916668, 2191298952, 2222673952, 1719544800, 2340000001, 2262943329,
}

func TestGoldenChurnDeterminism(t *testing.T) {
	first := churnScenario()
	second := churnScenario()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run-to-run divergence at flow %d: %v vs %v", i, first[i], second[i])
		}
	}
	if len(first) != len(goldenChurnEnds) {
		t.Fatalf("scenario produced %d flows, golden has %d", len(first), len(goldenChurnEnds))
	}
	for i := range first {
		if int64(first[i]) != goldenChurnEnds[i] {
			t.Errorf("flow %d completed at %dns, golden %dns", i, int64(first[i]), goldenChurnEnds[i])
		}
	}
}

// TestPrintGoldenChurn regenerates the golden values (run with -v when the
// scenario itself changes deliberately).
func TestPrintGoldenChurn(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("golden value generator; run with -v to print")
	}
	for _, end := range churnScenario() {
		t.Logf("%d,", int64(end))
	}
}
