package vast

import (
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// stagingConfig returns a VAST instance with a tiny staging tier and a
// slow QLC drain so backpressure is easy to hit.
func stagingConfig() Config {
	cfg := testConfig(&netsim.TCPTransport{PerConnBW: 50e9, Connections: 1})
	cfg.SCMStagingBytes = 1 << 30 // 1 GiB staging
	cfg.ReductionRatio = 2
	return cfg
}

func TestMigrationDrainsStagedBytes(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys := MustNew(env, fab, stagingConfig())
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 50e9, 0))
	env.Go("w", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, 512<<20)
	})
	env.Run()
	if sys.StagedBytes() != 0 {
		t.Fatalf("staged bytes not drained: %d", sys.StagedBytes())
	}
	if sys.MigratedBytes() != 512<<20 {
		t.Fatalf("migrated = %d, want 512 MiB", sys.MigratedBytes())
	}
}

func TestStagingBackpressureThrottlesSustainedWrites(t *testing.T) {
	// Ingest far beyond the staging tier: throughput must approach the
	// migration drain rate (QLC write bw x reduction ratio), not the SCM
	// landing rate.
	cfg := stagingConfig()
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys := MustNew(env, fab, cfg)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 200e9, 0))
	const total = 64 << 30 // 64 GiB through a 1 GiB stage
	var end sim.Time
	env.Go("w", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, 1<<30)
		}
		end = p.Now()
	})
	env.Run()
	bw := float64(total) / sim.Duration(end).Seconds()
	drain := sys.qlc.Spec().WriteBW * cfg.ReductionRatio
	if bw > 1.2*drain {
		t.Fatalf("sustained write %.2e exceeds drain rate %.2e: backpressure inert", bw, drain)
	}
	if sys.StagedBytes() != 0 {
		t.Fatalf("staging not drained at end: %d", sys.StagedBytes())
	}
}

func TestBurstWithinStagingRunsAtSCMSpeed(t *testing.T) {
	// A burst smaller than the stage must land at SCM/path speed, not the
	// QLC drain rate — the burst-buffer promise.
	cfg := stagingConfig()
	// slow the QLC dramatically so a drain-bound run would be obvious
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys := MustNew(env, fab, cfg)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 50e9, 0))
	const burst = 512 << 20 // half the stage
	var end sim.Time
	env.Go("w", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, burst)
		end = p.Now()
	})
	env.Run()
	bw := float64(burst) / sim.Duration(end).Seconds()
	// The write path bottleneck in testConfig is the per-CNode reduce pipe
	// (2 GB/s); the QLC drain must not slow the ack path.
	if bw < 1.8e9 {
		t.Fatalf("in-stage burst ran at %.2e, want ~2e9 (ack path)", bw)
	}
	_ = sys
}

func TestOpLevelWritesAccountStaging(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys := MustNew(env, fab, stagingConfig())
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 50e9, 0))
	env.Go("w", func(p *sim.Proc) {
		f := cl.Open(p, "/f", true)
		for i := int64(0); i < 8; i++ {
			f.WriteAt(p, i<<20, 1<<20)
			f.Fsync(p)
		}
		// let the migrator catch up
		p.Sleep(time.Second)
	})
	env.Run()
	if sys.MigratedBytes() != 8<<20 {
		t.Fatalf("migrated = %d, want 8 MiB", sys.MigratedBytes())
	}
}

func TestZeroCapacityDisablesBackpressure(t *testing.T) {
	cfg := stagingConfig()
	cfg.SCMStagingBytes = 0
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys := MustNew(env, fab, cfg)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 200e9, 0))
	var end sim.Time
	env.Go("w", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, 16<<30)
		end = p.Now()
	})
	env.Run()
	bw := float64(16<<30) / sim.Duration(end).Seconds()
	if bw < 1.8e9 {
		t.Fatalf("unbounded staging still throttled: %.2e", bw)
	}
	_ = sys
}

// TestOpWriteAllocatesNothing: once warm, an op-level write — the RPC, the
// SCM landing and the migration that drains it to QLC — allocates nothing.
// The migration draws its record, and the flow inside it, from the
// stager's free list.
func TestOpWriteAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	cfg := testConfig(&netsim.TCPTransport{PerConnBW: 5e9, Connections: 1, RPC: 50 * time.Microsecond})
	cfg.ClientCacheBytes = 0 // every write reaches the backend
	sys := MustNew(env, fab, cfg)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 50e9, 0))
	env.Go("w", func(p *sim.Proc) {
		f := cl.Open(p, "/op", true)
		for i := 0; ; i++ {
			f.WriteAt(p, int64(i%64)<<20, 1<<20)
		}
	})
	defer env.Shutdown()
	env.StepUntil(sim.Time(2 * sim.Second)) // grows the calendar's buckets and the pools
	before := sys.MigratedBytes()
	allocs := testing.AllocsPerRun(20, func() { env.StepUntil(env.Now() + sim.Time(10*sim.Millisecond)) })
	if sys.MigratedBytes() == before {
		t.Fatal("no write migrated while measuring")
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 10 ms of op-level writes, want 0", allocs)
	}
}
