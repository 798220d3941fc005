package vast

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// testConfig returns a small VAST instance behind a direct (gateway-less)
// TCP transport so tests control every constant.
func testConfig(tr netsim.Transport) Config {
	return Config{
		Name:             "vast-test",
		CNodes:           4,
		DBoxes:           2,
		DNodesPerDBox:    2,
		SCMPerDBox:       4,
		QLCPerDBox:       8,
		CNodeNICBW:       10e9,
		ReduceBWPerCNode: 2e9,
		FabricBWPerDBox:  10e9,
		FabricLatency:    time.Microsecond,
		SCMReplicas:      2,
		Transport:        tr,
		ClientCacheBytes: 64 << 20,
		CacheBlockBytes:  1 << 20,
		DNodeCacheBytes:  128 << 20,
		MetaLatency:      10 * time.Microsecond,
	}
}

func newTestSystem(t *testing.T) (*sim.Env, *sim.Fabric, *System) {
	t.Helper()
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	tr := &netsim.TCPTransport{PerConnBW: 5e9, Connections: 1, RPC: 50 * time.Microsecond}
	sys, err := New(env, fab, testConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	return env, fab, sys
}

func TestConfigValidate(t *testing.T) {
	tr := &netsim.TCPTransport{PerConnBW: 1e9}
	good := testConfig(tr)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.CNodes = 0 },
		func(c *Config) { c.DBoxes = 0 },
		func(c *Config) { c.SCMPerDBox = 0 },
		func(c *Config) { c.QLCPerDBox = 0 },
		func(c *Config) { c.CNodeNICBW = 0 },
		func(c *Config) { c.ReduceBWPerCNode = -1 },
		func(c *Config) { c.FabricBWPerDBox = 0 },
		func(c *Config) { c.SCMReplicas = 0 },
		func(c *Config) { c.Transport = nil },
		func(c *Config) { c.CacheBlockBytes = 0 },
	}
	for i, mutate := range mutations {
		c := testConfig(tr)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestMountRoundRobinAcrossCNodes(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	_ = env
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		nic := netsim.NewIface(fab, fmt.Sprintf("n%d/nic", i), 10e9, 0)
		cl := sys.Mount(fmt.Sprintf("n%d", i), nic).(*client)
		seen[cl.cnode]++
	}
	if len(seen) != 4 {
		t.Fatalf("mounts used %d of 4 CNodes", len(seen))
	}
	for cn, n := range seen {
		if n != 2 {
			t.Fatalf("CNode %d got %d mounts, want 2", cn, n)
		}
	}
}

func TestSharedNamespaceAcrossMounts(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	nic1 := netsim.NewIface(fab, "n1/nic", 10e9, 0)
	nic2 := netsim.NewIface(fab, "n2/nic", 10e9, 0)
	c1 := sys.Mount("n1", nic1)
	c2 := sys.Mount("n2", nic2)
	env.Go("writer", func(p *sim.Proc) {
		f := c1.Open(p, "/shared", true)
		f.WriteAt(p, 0, 4<<20)
		f.Fsync(p)
		f.Close(p)
	})
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Second)
		f := c2.Open(p, "/shared", false)
		if f.Size() != 4<<20 {
			t.Errorf("peer sees size %d, want 4MiB", f.Size())
		}
		f.ReadAt(p, 0, 4<<20)
		f.Close(p)
	})
	env.Run()
}

func TestWritesSlowerThanReads(t *testing.T) {
	// Section V-B: "sequential read bandwidths on VAST are higher than
	// sequential writes, as during write operations the CNodes are burdened
	// with similarity-based data arrangement and compression".
	measure := func(write bool) float64 {
		env, fab, sys := newTestSystem(t)
		nic := netsim.NewIface(fab, "n0/nic", 10e9, 0)
		cl := sys.Mount("n0", nic)
		const total = 8 << 30
		var end sim.Time
		env.Go("x", func(p *sim.Proc) {
			if write {
				cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
				end = p.Now()
				return
			}
			cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
			start := p.Now()
			cl.StreamRead(p, "/f", fsapi.Sequential, 1<<20, total)
			end = sim.Time(p.Now().Sub(start))
		})
		env.Run()
		return float64(total) / sim.Duration(end).Seconds()
	}
	w, r := measure(true), measure(false)
	if w >= r {
		t.Fatalf("VAST writes (%.2e) must be slower than reads (%.2e)", w, r)
	}
	// The write ceiling here is the per-CNode reduction engine (2 GB/s).
	if math.Abs(w-2e9) > 0.1e9 {
		t.Fatalf("write bw = %.2e, want ~2e9 (reduce pipe)", w)
	}
}

func TestSeqAndRandomReadsMatch(t *testing.T) {
	// The QLC backbone has no seek penalty: the I/O-researcher takeaway.
	measure := func(a fsapi.Access) float64 {
		env, fab, sys := newTestSystem(t)
		nic := netsim.NewIface(fab, "n0/nic", 10e9, 0)
		cl := sys.Mount("n0", nic)
		const total = 4 << 30
		var dur sim.Duration
		env.Go("x", func(p *sim.Proc) {
			cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
			start := p.Now()
			cl.StreamRead(p, "/f", a, 1<<20, total)
			dur = p.Now().Sub(start)
		})
		env.Run()
		return float64(total) / dur.Seconds()
	}
	seq, rnd := measure(fsapi.Sequential), measure(fsapi.Random)
	if rnd < 0.5*seq {
		t.Fatalf("random read (%.2e) collapsed vs sequential (%.2e)", rnd, seq)
	}
}

func TestFsyncCommitsToSCMNotQLC(t *testing.T) {
	// Op-level writes must land on the SCM staging tier (the commit point),
	// never synchronously on QLC.
	env, fab, sys := newTestSystem(t)
	nic := netsim.NewIface(fab, "n0/nic", 10e9, 0)
	cl := sys.Mount("n0", nic)
	env.Go("w", func(p *sim.Proc) {
		f := cl.Open(p, "/f", true)
		for i := int64(0); i < 8; i++ {
			f.WriteAt(p, i<<20, 1<<20)
			f.Fsync(p)
		}
	})
	env.Run()
	if sys.scm.Ops() == 0 {
		t.Fatal("fsync writes never reached the SCM tier")
	}
	if got := sys.qlc.Ops(); got != 0 {
		t.Fatalf("QLC saw %d synchronous write ops", got)
	}
}

func TestDNodeCacheServesRepeatReads(t *testing.T) {
	// Two different clients reading the same data: the second read should
	// hit the DNode cache and skip QLC.
	env, fab, sys := newTestSystem(t)
	c1 := sys.Mount("n1", netsim.NewIface(fab, "n1/nic", 10e9, 0))
	c2 := sys.Mount("n2", netsim.NewIface(fab, "n2/nic", 10e9, 0))
	env.Go("x", func(p *sim.Proc) {
		f := c1.Open(p, "/f", true)
		f.WriteAt(p, 0, 8<<20)
		f.Fsync(p)
		f.Close(p)
		// First cold read via client 1 (after dropping its page cache).
		c1.DropCaches()
		f = c1.Open(p, "/f", false)
		f.ReadAt(p, 0, 8<<20)
		f.Close(p)
		qlcAfterFirst := sys.qlc.Ops()
		// Client 2 reads the same bytes: DNode cache hit, no new QLC ops.
		f2 := c2.Open(p, "/f", false)
		f2.ReadAt(p, 0, 8<<20)
		f2.Close(p)
		if sys.qlc.Ops() != qlcAfterFirst {
			t.Errorf("second client's read went to QLC (%d -> %d ops)", qlcAfterFirst, sys.qlc.Ops())
		}
	})
	env.Run()
}

func TestSpreadAcrossCNodesLiftsPinning(t *testing.T) {
	measure := func(spread bool) float64 {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		tr := &netsim.TCPTransport{PerConnBW: 100e9, Connections: 1}
		cfg := testConfig(tr)
		cfg.SpreadAcrossCNodes = spread
		sys := MustNew(env, fab, cfg)
		cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 100e9, 0))
		const total = 16 << 30
		var end sim.Time
		env.Go("x", func(p *sim.Proc) {
			cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
			start := p.Now()
			cl.StreamRead(p, "/f", fsapi.Sequential, 1<<20, total)
			end = sim.Time(p.Now().Sub(start))
		})
		env.Run()
		return float64(total) / sim.Duration(end).Seconds()
	}
	pinned, spread := measure(false), measure(true)
	// Pinned: one CNode NIC (10 GB/s). Spread: the pool (40 GB/s), so the
	// fabric (20 GB/s) becomes the ceiling.
	if spread < 1.5*pinned {
		t.Fatalf("multipath spreading did not lift the CNode pin: %.2e vs %.2e", pinned, spread)
	}
}

func TestDerateScalesThroughput(t *testing.T) {
	measure := func(f float64) float64 {
		env, fab, sys := newTestSystem(t)
		if f < 1 {
			sys.Derate(f)
		}
		cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 10e9, 0))
		const total = 4 << 30
		var end sim.Time
		env.Go("x", func(p *sim.Proc) {
			cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
			end = p.Now()
		})
		env.Run()
		return float64(total) / sim.Duration(end).Seconds()
	}
	full, derated := measure(1), measure(0.5)
	if derated > 0.75*full {
		t.Fatalf("derate(0.5) barely changed throughput: %.2e -> %.2e", full, derated)
	}
}

func TestFabricAblationKnob(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	_ = env
	_ = fab
	up, down := sys.FabricPipes()
	if up.Capacity() != 20e9 || down.Capacity() != 20e9 {
		t.Fatalf("fabric pipes = %v/%v, want 2 DBoxes x 10e9", up.Capacity(), down.Capacity())
	}
	up.SetCapacity(5e9)
	if up.Capacity() != 5e9 {
		t.Fatal("fabric capacity not adjustable")
	}
}

// TestConfigValidateCaches checks every cache the config enables against
// the cache's own rules, so New returns an error where cache.New would
// panic.
func TestConfigValidateCaches(t *testing.T) {
	tr := &netsim.TCPTransport{PerConnBW: 1e9}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"both caches off, no block size", func(c *Config) {
			c.ClientCacheBytes, c.DNodeCacheBytes, c.CacheBlockBytes = 0, 0, 0
		}, ""},
		{"DNode cache below one block", func(c *Config) { c.DNodeCacheBytes = 1 << 10 }, "DNode cache: capacity 1024 smaller than one block"},
		{"DNode cache without block size", func(c *Config) {
			c.ClientCacheBytes, c.CacheBlockBytes = 0, 0
		}, "DNode cache: block size must be positive"},
		{"client cache below one block", func(c *Config) { c.ClientCacheBytes = 1 << 10 }, "client cache: capacity 1024 smaller than one block"},
		{"client cache without block size", func(c *Config) {
			c.DNodeCacheBytes, c.CacheBlockBytes = 0, 0
		}, "client cache: block size must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testConfig(tr)
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
			env := sim.NewEnv()
			if _, err := New(env, sim.NewFabric(env), c); err == nil {
				t.Fatal("New accepted the config")
			}
		})
	}
}
