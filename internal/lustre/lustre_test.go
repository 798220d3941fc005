package lustre

import (
	"fmt"
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
		Name:             "lustre-test",
		MDSCount:         2,
		MDSLatency:       200 * time.Microsecond,
		OSSCount:         4,
		OSTPerOSS:        device.SASHDDSpec("hdd").Scale(10, "ost"),
		ServerNICBW:      10e9,
		ClientCacheBytes: 64 << 20,
		CacheBlockBytes:  1 << 20,
		RPCLatency:       150 * time.Microsecond,
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
		func(c *Config) { c.MDSCount = 0 },
		func(c *Config) { c.OSSCount = 0 },
		func(c *Config) { c.ServerNICBW = 0 },
		func(c *Config) { c.CacheBlockBytes = 0 },
		func(c *Config) { c.OSTPerOSS.QueueDepth = 0 },
	}
	for i, mutate := range mutations {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestStripeOneCapsSingleStream(t *testing.T) {
	// A stripe-1 file lives on one OST: a single stream cannot exceed one
	// server's bandwidth (10 disks * 230 MB/s = 2.3 GB/s here).
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
	const total = 4 << 30
	var end sim.Time
	env.Go("x", func(p *sim.Proc) {
		cl.StreamWrite(p, "/f", fsapi.Sequential, 1<<20, total)
		end = p.Now()
	})
	env.Run()
	bw := float64(total) / sim.Duration(end).Seconds()
	perOST := testConfig().OSTPerOSS.WriteBW
	if bw > 1.05*perOST {
		t.Fatalf("single stream bw %.2e exceeds one OST (%.2e)", bw, perOST)
	}
}

func TestManyStreamsSpreadAcrossPool(t *testing.T) {
	// Many file-per-process streams use the whole OSS pool.
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
	const per = 1 << 30
	const streams = 8
	var last sim.Time
	for i := 0; i < streams; i++ {
		i := i
		env.Go(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			cl.StreamWrite(p, fmt.Sprintf("/f%d", i), fsapi.Sequential, 1<<20, per)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	env.Run()
	agg := float64(per*streams) / sim.Duration(last).Seconds()
	single := testConfig().OSTPerOSS.WriteBW
	if agg < 3*single {
		t.Fatalf("8 streams reached only %.2e, want ~pool (4 OSS x %.2e)", agg, single)
	}
}

func TestOpenPaysMDSLatency(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
	var openCost sim.Duration
	env.Go("x", func(p *sim.Proc) {
		start := p.Now()
		f := cl.Open(p, "/f", true)
		openCost = p.Now().Sub(start)
		f.Close(p)
	})
	env.Run()
	if openCost != testConfig().MDSLatency {
		t.Fatalf("open cost = %v, want MDS latency %v", openCost, testConfig().MDSLatency)
	}
}

func TestFsyncCommitsThroughIntentLog(t *testing.T) {
	env, fab, sys := newTestSystem(t)
	_ = sys
	cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
	var fsyncCost sim.Duration
	env.Go("x", func(p *sim.Proc) {
		f := cl.Open(p, "/f", true)
		f.WriteAt(p, 0, 1<<20)
		start := p.Now()
		f.Fsync(p)
		fsyncCost = p.Now().Sub(start)
	})
	env.Run()
	if fsyncCost < testConfig().OSTPerOSS.FlushLatency {
		t.Fatalf("fsync %v skipped the ZIL commit (%v)", fsyncCost, testConfig().OSTPerOSS.FlushLatency)
	}
}

func TestFsyncWritesScaleWithProcesses(t *testing.T) {
	// The Figure 3b/3c shape: synchronous writes grow near-linearly with
	// the process count because commits overlap across OSTs.
	measure := func(procs int) float64 {
		env, fab, sys := newTestSystem(t)
		cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
		const perProc = 32 << 20
		var last sim.Time
		for i := 0; i < procs; i++ {
			i := i
			env.Go(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
				f := cl.Open(p, fmt.Sprintf("/f%d", i), true)
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
		return float64(perProc*int64(procs)) / sim.Duration(last).Seconds()
	}
	one, eight := measure(1), measure(8)
	if eight < 5*one {
		t.Fatalf("fsync writes did not scale: 1 proc %.2e, 8 procs %.2e", one, eight)
	}
}

func TestRandomReadSlowerThanSequential(t *testing.T) {
	measure := func(a fsapi.Access) float64 {
		env, fab, sys := newTestSystem(t)
		cl := sys.Mount("n0", netsim.NewIface(fab, "n0/nic", 25e9, 0))
		const total = 1 << 30
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
	if rnd >= seq {
		t.Fatalf("HDD-backed random read (%.2e) not slower than sequential (%.2e)", rnd, seq)
	}
}

func TestDerate(t *testing.T) {
	_, _, sys := newTestSystem(t)
	before := sys.ossUp.Capacity()
	sys.Derate(0.8)
	if got := sys.ossUp.Capacity(); got != 0.8*before {
		t.Fatalf("derate: %v, want %v", got, 0.8*before)
	}
}

// TestConfigValidateCaches checks the client cache, when enabled, against
// the cache's own rules, so New returns an error where cache.New would
// panic.
func TestConfigValidateCaches(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"client cache off, no block size", func(c *Config) { c.ClientCacheBytes, c.CacheBlockBytes = 0, 0 }, ""},
		{"client cache below one block", func(c *Config) { c.ClientCacheBytes = 1 << 10 }, "client cache: capacity 1024 smaller than one block"},
		{"client cache without block size", func(c *Config) { c.CacheBlockBytes = 0 }, "client cache: block size must be positive"},
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
