package nvmelocal

import (
	"strings"
	"testing"
	"time"

	"storagesim/internal/device"
	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

func testConfig(fab *sim.Fabric) Config {
	return Config{
		Name:            "nvme-test",
		PerNode:         device.NVMe970ProSpec("ssd").Scale(3, "array"),
		MemBW:           30e9,
		DirtyLimitBytes: 4 << 30,
		PageCacheBytes:  1 << 30,
		CacheBlockBytes: 1 << 20,
		Interconnect:    netsim.NewLinkBank(fab, "ic", 1, 12.5e9, 2*time.Microsecond),
	}
}

func newTestSystem(t *testing.T) (*sim.Env, *sim.Fabric, *System) {
	t.Helper()
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys, err := New(env, fab, testConfig(fab))
	if err != nil {
		t.Fatal(err)
	}
	return env, fab, sys
}

func TestConfigValidate(t *testing.T) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	good := testConfig(fab)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.MemBW = 0 },
		func(c *Config) { c.DirtyLimitBytes = -1 },
		func(c *Config) { c.CacheBlockBytes = 0 },
		func(c *Config) { c.PerNode.WriteBW = 0 },
	}
	for i, mutate := range mutations {
		c := testConfig(fab)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNamespaceIsPerNode(t *testing.T) {
	// A file written on node A does not exist on node B (local storage).
	env, fab, sys := newTestSystem(t)
	a := sys.Mount("a", netsim.NewIface(fab, "a/nic", 25e9, 0))
	b := sys.Mount("b", netsim.NewIface(fab, "b/nic", 25e9, 0))
	env.Go("x", func(p *sim.Proc) {
		f := a.Open(p, "/data", true)
		f.WriteAt(p, 0, 1<<20)
		f.Close(p)
		g := b.Open(p, "/data", true)
		if g.Size() != 0 {
			t.Errorf("node B sees node A's file (size %d)", g.Size())
		}
	})
	env.Run()
}

func TestMountIdempotent(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	_ = env
	nic := netsim.NewIface(fab, "a/nic", 25e9, 0)
	c1 := sys.Mount("a", nic)
	c2 := sys.Mount("a", nic)
	if c1 != c2 {
		t.Fatal("remounting the same node created a second client")
	}
}

func TestWriteBackAbsorbsUpToDirtyLimit(t *testing.T) {
	// 2 GiB < 4 GiB dirty limit: the stream lands at memory speed.
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("a", netsim.NewIface(fab, "a/nic", 25e9, 0))
	const total = 2 << 30
	var end sim.Time
	env.Go("x", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
		end = p.Now()
	})
	env.Run()
	bw := float64(total) / sim.Duration(end).Seconds()
	if bw < 25e9 {
		t.Fatalf("small write ran at %.2e, want ~memory speed (30e9)", bw)
	}
}

func TestWriteBackThrottlesBeyondDirtyLimit(t *testing.T) {
	// 16 GiB >> 4 GiB dirty limit: most bytes run at device speed.
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("a", netsim.NewIface(fab, "a/nic", 25e9, 0))
	const total = 16 << 30
	var end sim.Time
	env.Go("x", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
		end = p.Now()
	})
	env.Run()
	bw := float64(total) / sim.Duration(end).Seconds()
	devBW := testConfig(fab).PerNode.WriteBW
	if bw < devBW || bw > 2*devBW {
		t.Fatalf("throttled write = %.2e, want between device (%.2e) and 2x", bw, devBW)
	}
}

func TestBackgroundDrainRestoresBudget(t *testing.T) {
	// Fill the dirty budget, idle long enough for the flusher, then write
	// again: the second burst should absorb at memory speed.
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("a", netsim.NewIface(fab, "a/nic", 25e9, 0))
	var secondBW float64
	env.Go("x", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, 4<<30) // fill budget
		p.Sleep(10 * time.Second)                               // flusher drains
		start := p.Now()
		cl.StreamWrite(p, "/g", fsapi.Sequential, 1<<20, 2<<30)
		secondBW = float64(2<<30) / p.Now().Sub(start).Seconds()
	})
	env.Run()
	if secondBW < 25e9 {
		t.Fatalf("second burst ran at %.2e, drain did not restore the budget", secondBW)
	}
}

func TestRemoteReadCrossesInterconnect(t *testing.T) {
	// With two nodes, reads come from the round-robin peer over the
	// interconnect (12.5 GB/s here, below the 8.7 GB/s device — device
	// still binds, but the path must exist and be slower than local).
	env, fab, sys := newTestSystem(t)
	a := sys.Mount("a", netsim.NewIface(fab, "a/nic", 25e9, 0))
	b := sys.Mount("b", netsim.NewIface(fab, "b/nic", 25e9, 0))
	if sys.Peer("a") != "b" || sys.Peer("b") != "a" {
		t.Fatalf("round-robin peers wrong: a->%s b->%s", sys.Peer("a"), sys.Peer("b"))
	}
	const total = 4 << 30
	var end sim.Time
	env.Go("x", func(p *sim.Proc) {
		// Peer must hold the data under the same path.
		b.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
		start := p.Now()
		a.StreamRead(p, "/f", fsapi.Sequential, 1<<20, total)
		end = sim.Time(p.Now().Sub(start))
	})
	env.Run()
	bw := float64(total) / sim.Duration(end).Seconds()
	devRead := testConfig(fab).PerNode.ReadBW
	if bw > devRead*1.05 {
		t.Fatalf("remote read %.2e exceeds the source device %.2e", bw, devRead)
	}
}

func TestSingleNodeReadsLocally(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	a := sys.Mount("a", netsim.NewIface(fab, "a/nic", 25e9, 0))
	if sys.Peer("a") != "a" {
		t.Fatal("single node must be its own peer")
	}
	const total = 2 << 30
	var end sim.Time
	env.Go("x", func(p *sim.Proc) {
		a.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
		start := p.Now()
		a.StreamRead(p, "/f", fsapi.Sequential, 1<<20, total)
		end = sim.Time(p.Now().Sub(start))
	})
	env.Run()
	bw := float64(total) / sim.Duration(end).Seconds()
	if bw < 0.9*testConfig(fab).PerNode.ReadBW {
		t.Fatalf("local read = %.2e, want ~device read bw", bw)
	}
}

func TestFsyncBarrierSerializesWriters(t *testing.T) {
	// fsync-per-write throughput must be far below the raw device write
	// bandwidth: the volatile-cache drain is a device-wide barrier.
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("a", netsim.NewIface(fab, "a/nic", 25e9, 0))
	const procs, perProc = 8, 16 << 20
	var last sim.Time
	for i := 0; i < procs; i++ {
		i := i
		env.Go("w", func(p *sim.Proc) {
			f := cl.Open(p, "/f"+string(rune('0'+i)), true)
			for off := int64(0); off < perProc; off += 1 << 20 {
				f.WriteAt(p, off, 1<<20)
				f.Fsync(p)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run()
	agg := float64(procs*perProc) / sim.Duration(last).Seconds()
	if agg > 0.3*testConfig(fab).PerNode.WriteBW {
		t.Fatalf("fsync-per-write ran at %.2e, barrier not serializing (device %.2e)",
			agg, testConfig(fab).PerNode.WriteBW)
	}
}

// TestConfigValidateCaches checks the page cache, when enabled, against the
// cache's own rules, so New returns an error where cache.New would panic.
func TestConfigValidateCaches(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"page cache off, no block size", func(c *Config) { c.PageCacheBytes, c.CacheBlockBytes = 0, 0 }, ""},
		{"page cache below one block", func(c *Config) { c.PageCacheBytes = 1 << 10 }, "page cache: capacity 1024 smaller than one block"},
		{"page cache without block size", func(c *Config) { c.CacheBlockBytes = 0 }, "page cache: block size must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			fab := sim.NewFabric(env)
			c := testConfig(fab)
			tc.mutate(&c)
			err := c.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want %q", err, tc.wantErr)
			}
			if _, err := New(env, fab, c); err == nil {
				t.Fatal("New accepted the config")
			}
		})
	}
}
