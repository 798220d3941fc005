package gpfs

import (
	"strings"
	"testing"
	"time"

	"storagesim/internal/device"
	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:             "gpfs-test",
		NSDServers:       4,
		ServerNICBW:      10e9,
		RaidPerServer:    device.SASHDDSpec("hdd").Scale(20, "raid"),
		ServerCacheBytes: 1 << 30,
		ServerMemBW:      40e9,
		ClientCacheBytes: 64 << 20,
		CacheBlockBytes:  1 << 20,
		ClientStreamCap:  8e9,
		ClientWriteCap:   2e9,
		RPCLatency:       100 * time.Microsecond,
	}
}

func newTestSystem(t *testing.T) (*sim.Env, *sim.Fabric, *System) {
	t.Helper()
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	sys, err := New(env, fab, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return env, fab, sys
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Name = "" },
		func(c *Config) { c.NSDServers = 0 },
		func(c *Config) { c.ServerNICBW = 0 },
		func(c *Config) { c.ServerMemBW = 0 },
		func(c *Config) { c.ClientStreamCap = 0 },
		func(c *Config) { c.ClientWriteCap = 0 },
		func(c *Config) { c.CacheBlockBytes = 0 },
		func(c *Config) { c.RaidPerServer.ReadBW = 0 },
	}
	for i, mutate := range mutations {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func measureStream(t *testing.T, a fsapi.Access, write bool, total int64) float64 {
	t.Helper()
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
	var dur sim.Duration
	env.Go("x", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
		if write {
			dur = sim.Duration(p.Now())
			return
		}
		start := p.Now()
		cl.StreamRead(p, "/f", a, 1<<20, total)
		dur = p.Now().Sub(start)
	})
	env.Run()
	return float64(total) / dur.Seconds()
}

func TestSequentialReadRidesReadahead(t *testing.T) {
	// Sequential streams are served through server memory, capped by the
	// client stack (8 GB/s here), not the spinning pool.
	bw := measureStream(t, fsapi.Sequential, false, 16<<30)
	if bw < 7.5e9 || bw > 8.5e9 {
		t.Fatalf("seq read = %.2e, want ~8e9 (client stream cap)", bw)
	}
}

func TestRandomReadCollapsesToSpindles(t *testing.T) {
	seq := measureStream(t, fsapi.Sequential, false, 4<<30)
	rnd := measureStream(t, fsapi.Random, false, 1<<30)
	if rnd > 0.25*seq {
		t.Fatalf("random read (%.2e) did not collapse vs sequential (%.2e)", rnd, seq)
	}
}

func TestWriteBoundByClientStack(t *testing.T) {
	bw := measureStream(t, fsapi.Sequential, true, 8<<30)
	if bw < 1.8e9 || bw > 2.2e9 {
		t.Fatalf("write = %.2e, want ~2e9 (client write cap)", bw)
	}
}

func TestPerNodeStackIsolation(t *testing.T) {
	// Two nodes each get their own stack pipes: aggregate read should be
	// ~2x one node's, not shared through a single stack.
	env, fab, sys := newTestSystem(t)
	c1 := sys.Mount("n1", netsim.NewIface(fab, "n1/nic", 25e9, 0))
	c2 := sys.Mount("n2", netsim.NewIface(fab, "n2/nic", 25e9, 0))
	const total = 8 << 30
	var last sim.Time
	wg := sim.NewWaitGroup(env)
	for i, cl := range []fsapi.Client{c1, c2} {
		cl := cl
		i := i
		wg.Go("w", func(p *sim.Proc) {
			cl.StreamWrite(p, "/f"+string(rune('0'+i)), fsapi.Sequential, 1<<20, total)
			cl.StreamRead(p, "/f"+string(rune('0'+i)), fsapi.Sequential, 1<<20, total)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run()
	// write at 2 GB/s + read at 8 GB/s per node, concurrently on two
	// nodes: makespan ~ 8GiB/2e9 + 8GiB/8e9 ≈ 5.4s. A shared stack would
	// double it.
	if sec := sim.Duration(last).Seconds(); sec > 6.5 {
		t.Fatalf("two nodes appear to share one client stack: makespan %.1fs", sec)
	}
}

func TestServerCacheServesFreshData(t *testing.T) {
	// Op-level: data just written is served from NSD memory, not the
	// spinning pool — the ResNet-50 effect.
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
	env.Go("x", func(p *sim.Proc) {
		f := cl.Open(p, "/f", true)
		f.WriteAt(p, 0, 8<<20)
		f.Fsync(p)
		f.Close(p)
		raidOpsAfterWrite := sys.raid.Ops()
		cl.DropCaches() // client cold, server warm
		f = cl.Open(p, "/f", false)
		f.ReadAt(p, 0, 8<<20)
		f.Close(p)
		if sys.raid.Ops() != raidOpsAfterWrite {
			t.Errorf("warm-server read hit the RAID pool (%d -> %d ops)",
				raidOpsAfterWrite, sys.raid.Ops())
		}
	})
	env.Run()
}

func TestFsyncPaysRaidCommit(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	_ = sys
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
	var withSync, withoutSync sim.Duration
	env.Go("x", func(p *sim.Proc) {
		f := cl.Open(p, "/a", true)
		start := p.Now()
		f.WriteAt(p, 0, 1<<20) // buffered: ~free
		withoutSync = p.Now().Sub(start)
		start = p.Now()
		f.Fsync(p)
		withSync = p.Now().Sub(start)
	})
	env.Run()
	if withSync <= withoutSync {
		t.Fatalf("fsync (%v) must cost more than a buffered write (%v)", withSync, withoutSync)
	}
	if withSync < testConfig().RaidPerServer.FlushLatency {
		t.Fatalf("fsync (%v) skipped the RAID commit (%v)", withSync, testConfig().RaidPerServer.FlushLatency)
	}
}

func TestDerate(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	_ = env
	_ = fab
	before := sys.serverMem.Capacity()
	sys.Derate(0.5)
	if sys.serverMem.Capacity() != before/2 {
		t.Fatalf("derate did not halve server memory bandwidth")
	}
}

// TestConfigValidateCaches checks every cache the config enables against
// the cache's own rules, so New returns an error where cache.New would
// panic.
func TestConfigValidateCaches(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"both caches off", func(c *Config) { c.ServerCacheBytes, c.ClientCacheBytes = 0, 0 }, ""},
		{"server cache below one block", func(c *Config) { c.ServerCacheBytes = 1 << 10 }, "server cache: capacity 1024 smaller than one block"},
		{"client cache below one block", func(c *Config) { c.ClientCacheBytes = 1 << 10 }, "client cache: capacity 1024 smaller than one block"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testConfig()
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
