package sim

import (
	"math"
	"testing"
	"time"
)

func TestUtilizationFullyBusyPipe(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	fab.EnableAccounting()
	link := fab.NewPipe("link", 1e9, 0)
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 2e9, 0) // busy for the whole run
	})
	e.Run()
	if u := link.Utilization(); math.Abs(u-1.0) > 1e-6 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
	if b := link.BytesMoved(); math.Abs(b-2e9) > 1 {
		t.Fatalf("bytes moved = %v, want 2e9", b)
	}
}

func TestUtilizationHalfBusy(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	fab.EnableAccounting()
	link := fab.NewPipe("link", 1e9, 0)
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e9, 0) // 1s busy
		p.Sleep(time.Second)                   // 1s idle
		fab.Transfer(p, []*Pipe{link}, 1, 0)   // force a final advance (~1ns)
	})
	e.Run()
	u := link.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestUtilizationIdentifiesBottleneck(t *testing.T) {
	// Two-stage path where the backbone binds: it must rank first.
	e := NewEnv()
	fab := NewFabric(e)
	fab.EnableAccounting()
	nic := fab.NewPipe("nic", 10e9, 0)
	backbone := fab.NewPipe("backbone", 1e9, 0)
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{nic, backbone}, 1e9, 0)
	})
	e.Run()
	top := fab.TopUtilized(2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Name != "backbone" {
		t.Fatalf("bottleneck = %s, want backbone", top[0].Name)
	}
	if top[0].Utilization < 0.99 {
		t.Fatalf("backbone utilization = %v", top[0].Utilization)
	}
	if top[1].Utilization > 0.15 {
		t.Fatalf("nic utilization = %v, want ~0.1", top[1].Utilization)
	}
}

func TestAccountingOffCostsNothing(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	link := fab.NewPipe("link", 1e9, 0)
	e.Go("x", func(p *Proc) {
		fab.Transfer(p, []*Pipe{link}, 1e9, 0)
	})
	e.Run()
	if link.Utilization() != 0 {
		t.Fatal("utilization accrued without EnableAccounting")
	}
	if len(fab.TopUtilized(5)) != 0 {
		t.Fatal("report non-empty without accounting")
	}
}

func TestTopUtilizedDeterministicOrder(t *testing.T) {
	e := NewEnv()
	fab := NewFabric(e)
	fab.EnableAccounting()
	a := fab.NewPipe("a", 1e9, 0)
	b := fab.NewPipe("b", 1e9, 0)
	e.Go("x", func(p *Proc) {
		fl1 := new(Flow)
		fab.StartFlow(fl1, []*Pipe{a}, 1e9, 0)
		fl2 := new(Flow)
		fab.StartFlow(fl2, []*Pipe{b}, 1e9, 0)
		fl1.Done().Wait(p)
		fl2.Done().Wait(p)
	})
	e.Run()
	top := fab.TopUtilized(0)
	if len(top) != 2 || top[0].Name != "a" || top[1].Name != "b" {
		t.Fatalf("tie-break order = %v, want a then b", top)
	}
}
