package mdtest

import (
	"math"
	"testing"
	"time"

	"storagesim/internal/cluster"
	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
)

// latClient charges a fixed open latency — the engine's unit-test stand-in.
type latClient struct {
	ns    *fsapi.Namespace
	lat   sim.Duration
	opens int
}

func (c *latClient) FSName() string   { return "lat" }
func (c *latClient) NodeName() string { return "n0" }
func (c *latClient) DropCaches()      {}
func (c *latClient) Remove(p *sim.Proc, path string) {
	c.opens++
	p.Sleep(c.lat)
	c.ns.Remove(path)
}
func (c *latClient) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
}
func (c *latClient) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
}
func (c *latClient) Open(p *sim.Proc, path string, truncate bool) fsapi.File {
	c.opens++
	p.Sleep(c.lat)
	return &latFile{ino: c.ns.Create(path, truncate)}
}

type latFile struct{ ino *fsapi.Inode }

func (f *latFile) Path() string                      { return f.ino.Path }
func (f *latFile) Size() int64                       { return f.ino.Size }
func (f *latFile) WriteAt(p *sim.Proc, off, n int64) {}
func (f *latFile) ReadAt(p *sim.Proc, off, n int64)  {}
func (f *latFile) Fsync(p *sim.Proc)                 {}
func (f *latFile) Close(p *sim.Proc)                 {}

func TestValidation(t *testing.T) {
	env := sim.NewEnv()
	if _, err := Run(env, nil, Config{FilesPerRank: 1, ProcsPerNode: 1}); err == nil {
		t.Fatal("no mounts accepted")
	}
	cl := &latClient{ns: fsapi.NewNamespace(), lat: time.Millisecond}
	if _, err := Run(env, []fsapi.Client{cl}, Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRatesMatchLatency(t *testing.T) {
	// One rank, 1ms per open: exactly 1000 creates/sec.
	env := sim.NewEnv()
	cl := &latClient{ns: fsapi.NewNamespace(), lat: time.Millisecond}
	res, err := Run(env, []fsapi.Client{cl}, Config{FilesPerRank: 100, ProcsPerNode: 1, Dir: "/md"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CreatesPerSec < 995 || res.CreatesPerSec > 1005 {
		t.Fatalf("creates/s = %.1f, want ~1000", res.CreatesPerSec)
	}
	if res.OpensPerSec < 995 || res.OpensPerSec > 1005 {
		t.Fatalf("opens/s = %.1f, want ~1000", res.OpensPerSec)
	}
	if res.RemovesPerSec < 995 || res.RemovesPerSec > 1005 {
		t.Fatalf("removes/s = %.1f, want ~1000", res.RemovesPerSec)
	}
	// create + open + remove passes: 300 metadata ops total.
	if cl.opens != 300 {
		t.Fatalf("metadata ops = %d, want 300", cl.opens)
	}
	if cl.ns.Len() != 0 {
		t.Fatalf("%d files left after the remove pass", cl.ns.Len())
	}
}

// TestFreePhaseIsUnbounded: an open path that charges no latency finishes
// every phase in no virtual time, which reads as an unbounded rate, not as
// a dead file system's zero.
func TestFreePhaseIsUnbounded(t *testing.T) {
	env := sim.NewEnv()
	cl := &latClient{ns: fsapi.NewNamespace()}
	res, err := Run(env, []fsapi.Client{cl}, Config{FilesPerRank: 10, ProcsPerNode: 2, Dir: "/md"})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]float64{"creates": res.CreatesPerSec, "opens": res.OpensPerSec, "removes": res.RemovesPerSec} {
		if !math.IsInf(r, 1) {
			t.Errorf("%s/s = %g over a free phase, want +Inf", name, r)
		}
	}
	if cl.opens != 60 {
		t.Fatalf("metadata ops = %d, want 60", cl.opens)
	}
}

func TestConcurrencyScalesRates(t *testing.T) {
	run := func(procs int) float64 {
		env := sim.NewEnv()
		cl := &latClient{ns: fsapi.NewNamespace(), lat: time.Millisecond}
		res, err := Run(env, []fsapi.Client{cl}, Config{FilesPerRank: 50, ProcsPerNode: procs, Dir: "/md"})
		if err != nil {
			t.Fatal(err)
		}
		return res.CreatesPerSec
	}
	if r8, r1 := run(8), run(1); r8 < 7.5*r1 {
		t.Fatalf("rates did not scale with ranks: %f vs %f", r1, r8)
	}
}

func TestMetadataRatesRankSystems(t *testing.T) {
	// VAST over TCP (NFS RPC + SCM lookup) must create files slower per
	// rank than GPFS (one NSD RPC), and Lustre pays its MDS round trip.
	rate := func(build func(c *cluster.Cluster) fsapi.Client) float64 {
		env := sim.NewEnv()
		fab := sim.NewFabric(env)
		cl := cluster.MustNew(env, fab, cluster.LassenSpec(), 1)
		m := build(cl)
		res, err := Run(env, []fsapi.Client{m}, Config{FilesPerRank: 64, ProcsPerNode: 4, Dir: "/md"})
		if err != nil {
			t.Fatal(err)
		}
		return res.CreatesPerSec
	}
	vastRate := rate(func(c *cluster.Cluster) fsapi.Client {
		return cluster.VASTOnLassen(c).Mount(c.Node(0).Name, c.Node(0).NIC)
	})
	gpfsRate := rate(func(c *cluster.Cluster) fsapi.Client {
		return cluster.GPFSOnLassen(c).Mount(c.Node(0).Name, c.Node(0).NIC)
	})
	if vastRate >= gpfsRate {
		t.Fatalf("VAST/TCP metadata (%f/s) should trail GPFS (%f/s)", vastRate, gpfsRate)
	}
}
