package traffic

import (
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for runtime.NumGoroutine to fall back to want;
// an unwound goroutine may still be exiting when Shutdown returns.
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

// TestRunLeavesNoGoroutines: a window that ends with requests queued on a
// congested link leaves them parked mid-transfer; Run unwinds them once
// its report is built. The mounts hide fsapi.Starter, so the requests are
// processes.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	env, fab, mount := fakeRig(2e7) // 20 MB/s against 100 MB/s offered
	rep := Run(env, fab, 2, processMounts(mount), Config{Spec: twoTenantSpec(), Duration: time.Second, Seed: 3})
	if rep.Tenants[0].Completed >= rep.Tenants[0].Offered {
		t.Fatal("nothing in flight at the window's end: the test proves nothing")
	}
	settleGoroutines(t, base)
}

// TestRunShardedLeavesNoGoroutines: the same for a resilient sharded run,
// whose parked requests, attempts and hedges Group.Shutdown unwinds in
// every rack. The forwarded requests, which run plain, are processes too.
func TestRunShardedLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	g, racks := buildShardedRig(3, 2, 2e7, 500*time.Microsecond)
	for r := range racks {
		racks[r].Mount = processMounts(racks[r].Mount)
	}
	rep := RunSharded(g, racks, ShardedConfig{
		Config:         Config{Spec: resilientShardedSpec(), Duration: time.Second, Seed: 7},
		RemoteFraction: 0.4,
	})
	g.Shutdown()
	var inflight uint64
	for _, tr := range rep.Tenants {
		inflight += tr.Offered - tr.Completed - tr.Shed
	}
	if inflight == 0 {
		t.Fatal("nothing in flight at the window's end: the test proves nothing")
	}
	settleGoroutines(t, base)
}
