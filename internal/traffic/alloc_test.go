package traffic

import (
	"testing"
	"time"
)

// allocsPerRequest runs whole traffic windows under testing.AllocsPerRun
// and amortizes the measured allocations over the generated requests. The
// per-window fixed cost (environment, calendar, spec state, pool warm-up)
// is real but bounded; with ~4096 requests per window a steady-state
// regression of even a fraction of an allocation per request moves the
// amortized number far past the pinned budgets below.
func allocsPerRequest(t *testing.T, spec Spec) float64 {
	t.Helper()
	const requestsPerRun = 4096
	window := time.Duration(requestsPerRun) * time.Millisecond
	var requests uint64
	seed := uint64(0)
	per := testing.AllocsPerRun(3, func() {
		seed++
		env, fab, mount := fakeRig(1e12)
		rep := Run(env, fab, 4, mount, Config{Spec: spec, Duration: window, Seed: seed})
		requests += rep.Tenants[0].Offered
	})
	// AllocsPerRun averages over its runs; requests accumulated over the
	// warm-up run plus the measured ones, so average the same way.
	return per / (float64(requests) / 4)
}

// TestSteadyStateRequestAllocs pins the zero-alloc hot path: the pooled
// request lifecycle must keep the amortized per-request allocation count
// at window-setup noise level (well under one allocation per request) for
// both the plain engine and the fully armed resilience stack. The budgets
// are deliberately above the measured steady state (~0.1/req of setup
// amortization) and far below one real allocation per request.
func TestSteadyStateRequestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-window allocation measurement")
	}
	plain := Spec{Tenants: []Tenant{{
		Name: "bench", Clients: 1_000_000, Workload: SeqWrite,
		Arrival:      Arrival{Kind: Poisson, Rate: 1e-3},
		RequestBytes: 1 << 20, IOBytes: 1 << 20,
		MaxInflight: 256,
	}}}
	if got := allocsPerRequest(t, plain); got > 0.5 {
		t.Errorf("traffic-only path allocates %.3f/request amortized, budget 0.5", got)
	}

	if got := allocsPerRequest(t, armedSpec()); got > 0.5 {
		t.Errorf("resilience-armed path allocates %.3f/request amortized, budget 0.5", got)
	}
}

// TestResilientRequestStartsOneProcess: on BenchmarkResilienceOverhead's
// rig the kernel starts one process per attempt and none for the
// coordinator, which runs as a continuation.
func TestResilientRequestStartsOneProcess(t *testing.T) {
	env, fab, mount := fakeRig(1e12)
	rep := Run(env, fab, 4, mount, Config{Spec: armedSpec(), Duration: 4096 * time.Millisecond, Seed: 1})
	tr := rep.Tenants[0]
	admitted := tr.Offered - tr.ShedAdmission - tr.ShedBrownout - tr.ShedBreaker
	if admitted < 4000 || tr.Retries != 0 {
		t.Fatalf("%d admitted, %d retries: the rig must admit every request and retry none", admitted, tr.Retries)
	}
	if got, want := uint64(env.Starts()), admitted+tr.Hedges; got != want {
		t.Fatalf("%d process starts for %d requests and %d hedges, want %d", got, admitted, tr.Hedges, want)
	}
}

// TestRequestRecordDoubleReleasePanics pins the pool's loudest invariant:
// returning a request record twice is always a lifecycle bug and must not
// silently corrupt the free list.
func TestRequestRecordDoubleReleasePanics(t *testing.T) {
	sh := &shard{}
	rec := sh.getRec()
	sh.freeRec(rec)
	defer func() {
		if recover() == nil {
			t.Fatal("double freeRec did not panic")
		}
	}()
	sh.freeRec(rec)
}

// TestRequestRecordGenerationAdvances pins use-after-recycle detection:
// every release bumps the record's generation, so a stale reference that
// snapshotted the generation can tell its record has been rebound.
func TestRequestRecordGenerationAdvances(t *testing.T) {
	sh := &shard{}
	rec := sh.getRec()
	gen := rec.gen
	sh.freeRec(rec)
	if rec.gen != gen+1 {
		t.Fatalf("release bumped gen %d -> %d, want +1", gen, rec.gen)
	}
	again := sh.getRec()
	if again != rec {
		t.Fatalf("pool of one record handed back a different record")
	}
	if again.freed {
		t.Fatal("recycled record still marked freed")
	}
	sh.freeRec(again)
	if rec.gen != gen+2 {
		t.Fatalf("second release bumped gen to %d, want %d", rec.gen, gen+2)
	}
}
