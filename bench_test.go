// Benchmark harness: the three figures `make bench` records in
// BENCH_kernel.json (Fig. 2a, Fig. 3 and the consistency table), whole
// IOR, DLIO, MDTest and trace-replay runs, and micro-benchmarks of the
// simulation engine itself. Every paperfigs figure at -quick is
// cmd/paperfigs' BenchmarkFigure/<name>.
//
// Figure benchmarks measure how long the simulator takes to regenerate the
// artifact (wall time of the sweep) and report the headline simulated
// metric via b.ReportMetric, so a bench run doubles as a results summary:
//
//	go test -bench=. -benchmem
package storagesim_test

import (
	"fmt"
	"testing"

	storagesim "storagesim"
	"storagesim/internal/cache"
	"storagesim/internal/cluster"
	"storagesim/internal/gpfs"
	"storagesim/internal/lustre"
	"storagesim/internal/nvmelocal"
	"storagesim/internal/sim"
	"storagesim/internal/stats"
	"storagesim/internal/unifyfs"
	"storagesim/internal/vast"
)

func quickOpts() storagesim.ExperimentOptions {
	return storagesim.ExperimentOptions{Quick: true, Reps: 1}
}

// findSeries locates a named series in a panel (helper for metrics).
func findSeries(p storagesim.Panel, name string) stats.Series {
	for _, s := range p.Series {
		if s.Name == name {
			return s
		}
	}
	return stats.Series{}
}

// BenchmarkFig2a regenerates Figure 2a (Lassen IOR scalability, VAST vs
// GPFS, three workloads). Reports VAST's gateway plateau and GPFS's
// 64-node aggregate in GB/s.
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := storagesim.Fig2a(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		sci := panels[0]
		_, vmax := findSeries(sci, "vast").MaxY()
		b.ReportMetric(vmax, "vast-plateau-GB/s")
		b.ReportMetric(findSeries(sci, "gpfs").YAt(64), "gpfs-64n-GB/s")
	}
}

// BenchmarkFig3 regenerates Figure 3 (single-node fsync tests on all four
// machines). Reports the Wombat VAST/NVMe fsync-write ratio (paper: ~5x).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels, err := storagesim.Fig3(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range panels {
			if p.ID == "fig3d-write+fsync" {
				ratio := findSeries(p, "vast").YAt(32) / findSeries(p, "nvme").YAt(32)
				b.ReportMetric(ratio, "vast/nvme-fsync-ratio")
			}
		}
	}
}

// BenchmarkConsistency reproduces the 10-repetition shared-environment
// methodology (Section IV-C).
func BenchmarkConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := storagesim.Consistency(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDTest measures the metadata benchmark on GPFS.
func BenchmarkMDTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Lassen", 2)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.GPFSOnLassen(cl), cl)
		res, err := storagesim.RunMDTest(s.Env, mounts, storagesim.MDTestConfig{
			FilesPerRank: 128, ProcsPerNode: 8, Dir: "/b",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CreatesPerSec, "sim-creates/s")
	}
}

// --- engine micro-benchmarks ---

// BenchmarkKernelTimerWheel measures raw event throughput of the DES
// kernel: schedule-and-fire chains with no process switches.
func BenchmarkKernelTimerWheel(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	n := 0
	var tick func()
	t := sim.Time(0)
	tick = func() {
		n++
		if n < b.N {
			t += 10
			env.Schedule(t, tick)
		}
	}
	b.ResetTimer()
	env.Schedule(0, tick)
	env.Run()
}

// BenchmarkKernelProcessSwitch measures the cost of a full process
// park/resume cycle (two channel handoffs plus calendar traffic).
func BenchmarkKernelProcessSwitch(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	env.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkKernelHandoff measures a switch between two processes: they
// sleep in turn, so every resume hands the baton from one goroutine to the
// other (one channel operation) — the switch that dominates model runs,
// which BenchmarkKernelProcessSwitch's self-resume never pays. events/op,
// starts/op, resumes/op and switches/op count the kernel's work exactly.
func BenchmarkKernelHandoff(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	for i := 0; i < 2; i++ {
		env.Go("sleeper", func(p *sim.Proc) {
			p.Sleep(sim.Duration(5 * i)) // out of phase with the other
			for j := i; j < b.N; j += 2 {
				p.Sleep(10)
			}
		})
	}
	b.ResetTimer()
	env.Run()
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(env.Events())/n, "events/op")
	b.ReportMetric(float64(env.Starts())/n, "starts/op")
	b.ReportMetric(float64(env.Resumes())/n, "resumes/op")
	b.ReportMetric(float64(env.Switches())/n, "switches/op")
}

// BenchmarkFabricTransfer measures one transfer over a two-pipe path with
// propagation latency, two processes alternating: the latency stage, the
// flow's start and solve, its completion, and the waiter's resume.
func BenchmarkFabricTransfer(b *testing.B) {
	b.ReportAllocs()
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	path := []*sim.Pipe{fab.NewPipe("nic", 1e9, 1000), fab.NewPipe("disk", 2e9, 0)}
	for i := 0; i < 2; i++ {
		env.Go("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(100 * i)) // out of phase with the other
			for j := i; j < b.N; j += 2 {
				fab.Transfer(p, path, 1000, 0)
			}
		})
	}
	b.ResetTimer()
	env.Run()
}

// BenchmarkBackendOp measures one op-level write and one read of 1 MiB
// through each backend's fsbase op path (OpWrite and OpRead: RPC, network,
// server and device), on its paper deployment with the client page cache
// off so that every operation reaches the backend.
func BenchmarkBackendOp(b *testing.B) {
	for _, bc := range []struct {
		name, machine string
		mount         func(cl *storagesim.Cluster) storagesim.Mounter
	}{
		{"vast", "Wombat", func(cl *storagesim.Cluster) storagesim.Mounter {
			cfg := cluster.WombatVASTConfig(cl)
			cfg.ClientCacheBytes = 0
			return vast.MustNew(cl.Env, cl.Fab, cfg)
		}},
		{"gpfs", "Lassen", func(cl *storagesim.Cluster) storagesim.Mounter {
			cfg := cluster.GPFSLassenConfig(cl)
			cfg.ClientCacheBytes = 0
			return gpfs.MustNew(cl.Env, cl.Fab, cfg)
		}},
		{"lustre", "Ruby", func(cl *storagesim.Cluster) storagesim.Mounter {
			cfg := cluster.LustreConfig(cl)
			cfg.ClientCacheBytes = 0
			return lustre.MustNew(cl.Env, cl.Fab, cfg)
		}},
		{"nvme", "Wombat", func(cl *storagesim.Cluster) storagesim.Mounter {
			cfg := cluster.NVMeWombatConfig(cl)
			cfg.PageCacheBytes = 0
			return nvmelocal.MustNew(cl.Env, cl.Fab, cfg)
		}},
		{"unifyfs", "Wombat", func(cl *storagesim.Cluster) storagesim.Mounter {
			return unifyfs.MustNew(cl.Env, cl.Fab, cluster.UnifyFSWombatConfig(cl))
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			cl, err := storagesim.New().Cluster(bc.machine, 1)
			if err != nil {
				b.Fatal(err)
			}
			client := storagesim.MountAll(bc.mount(cl), cl)[0]
			const size = 1 << 20
			cl.Env.Go("rank", func(p *sim.Proc) {
				f := client.Open(p, "/bench/op", true)
				for i := 0; i < b.N; i++ {
					off := int64(i%64) * size
					f.WriteAt(p, off, size)
					f.ReadAt(p, off, size)
				}
			})
			b.ResetTimer()
			cl.Env.Run()
		})
	}
}

// BenchmarkFairShareSolver measures the max-min solver with 512 concurrent
// flows over a shared bottleneck joining and leaving.
func BenchmarkFairShareSolver(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		link := fab.NewPipe("link", 1e10, 0)
		for f := 0; f < 512; f++ {
			f := f
			env.Go(fmt.Sprintf("f%d", f), func(p *sim.Proc) {
				p.Sleep(sim.Duration(f) * 1000)
				fab.Transfer(p, []*sim.Pipe{link}, 1e7, 0)
			})
		}
		env.Run()
	}
}

// BenchmarkCacheLookup measures the LRU page cache hit path.
func BenchmarkCacheLookup(b *testing.B) {
	b.ReportAllocs()
	c := cache.New(cache.Config{BlockSize: 1 << 20, Capacity: 1 << 30})
	c.Insert(1, 0, 1<<30, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) << 20
		if hit, _ := c.Lookup(nil, 1, off, 1<<20); hit == 0 {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkCacheChurn measures the page cache under churn: sequential
// 256 KiB reads of 1 MiB blocks over a working set four times the
// capacity, so every fourth lookup misses, inserts its block and evicts
// the least recently used one (the Cosmoflow read pattern).
func BenchmarkCacheChurn(b *testing.B) {
	b.ReportAllocs()
	const bs, read, fileBlocks = 1 << 20, 256 << 10, 256
	c := cache.New(cache.Config{BlockSize: bs, Capacity: fileBlocks / 4 * bs})
	var dst [4]cache.Range
	var off int64
	for i := 0; i < b.N; i++ {
		_, misses := c.Lookup(dst[:0], 1, off, read)
		for _, m := range misses {
			c.Insert(m.File, m.Off, m.Len, false)
		}
		off = (off + read) % (fileBlocks * bs)
	}
}

// BenchmarkCacheFsyncClean measures fsync of a clean file against a cache
// filled with other files' blocks, half of them dirty: the close at the
// end of every DLIO sample read. The per-file index answers it without
// looking at other files, so ns/op is flat across cache sizes.
func BenchmarkCacheFsyncClean(b *testing.B) {
	const bs, fileBlocks = 4 << 10, 64
	for _, resident := range []int64{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("resident=%dk", resident>>10), func(b *testing.B) {
			b.ReportAllocs()
			c := cache.New(cache.Config{BlockSize: bs, Capacity: resident * bs})
			for f := int64(0); f < resident/fileBlocks; f++ {
				c.Insert(uint64(f+2), 0, fileBlocks*bs, f%2 == 0)
			}
			c.Insert(1, 0, bs, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := c.FlushFileRanges(1); r != nil {
					b.Fatalf("clean file flushed %v", r)
				}
			}
		})
	}
}

// BenchmarkIORFlowLevel measures a full flow-level IOR run (64 nodes, 44
// ppn — 2816 rank flows through the Lassen gateway).
func BenchmarkIORFlowLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Lassen", 64)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.VASTOnLassen(cl), cl)
		res, err := storagesim.RunIOR(s.Env, mounts, storagesim.IORConfig{
			Workload: storagesim.Scientific, BlockSize: 1 << 20, TransferSize: 1 << 20,
			Segments: 3000, ProcsPerNode: 44, ReorderTasks: true, Dir: "/b",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WriteBW/1e9, "sim-GB/s")
	}
}

// BenchmarkIOROpLevel measures a full op-level (fsync) IOR run.
func BenchmarkIOROpLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Wombat", 1)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.VASTOnWombat(cl), cl)
		res, err := storagesim.RunIOR(s.Env, mounts, storagesim.IORConfig{
			Workload: storagesim.Scientific, BlockSize: 1 << 20, TransferSize: 1 << 20,
			Segments: 64, ProcsPerNode: 32, Fsync: true, Dir: "/b",
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WriteBW/1e9, "sim-GB/s")
	}
}

// BenchmarkDLIOResNet measures a full ResNet-50 DLIO run at 4 nodes.
func BenchmarkDLIOResNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := storagesim.New()
		cl, err := s.Cluster("Lassen", 4)
		if err != nil {
			b.Fatal(err)
		}
		mounts := storagesim.MountAll(storagesim.GPFSOnLassen(cl), cl)
		rec := storagesim.NewTraceRecorder()
		res, err := storagesim.RunDLIO(s.Env, mounts, storagesim.ResNet50Config(), rec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AppSamplesPerSec, "sim-samples/s")
	}
}

// BenchmarkTraceReplay measures projecting a recorded ResNet-50 trace onto
// GPFS.
func BenchmarkTraceReplay(b *testing.B) {
	// Record once outside the timed loop.
	s := storagesim.New()
	cl, err := s.Cluster("Lassen", 2)
	if err != nil {
		b.Fatal(err)
	}
	rec := storagesim.NewTraceRecorder()
	if _, err := storagesim.RunDLIO(s.Env,
		storagesim.MountAll(storagesim.VASTOnLassen(cl), cl),
		storagesim.ResNet50Config(), rec); err != nil {
		b.Fatal(err)
	}
	spans := rec.Spans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2 := storagesim.New()
		cl2, err := s2.Cluster("Lassen", 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := storagesim.ReplayTrace(s2.Env,
			storagesim.MountAll(storagesim.GPFSOnLassen(cl2), cl2),
			spans, storagesim.ReplayConfig{}, storagesim.NewTraceRecorder())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup, "speedup")
	}
}
