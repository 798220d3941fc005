// Package lustre models the Lustre deployment on Ruby and Quartz (Section
// IV-B): 16 metadata servers with SSD/ZFS mirrors and 36 object storage
// servers, each with SAS-HDD raidz2 groups, reached over the Omni-Path
// fabric. Its role in the paper is the single-node fsync comparison
// (Figures 3b and 3c), where Lustre grows almost linearly with process
// count while the gateway-throttled VAST deployment stays flat.
//
// The model captures the Lustre properties that matter there:
//
//   - File-per-process files with stripe count 1: each rank's file lives on
//     one OST, so a single stream is capped by one server's bandwidth while
//     many streams spread across the pool and scale.
//   - fsync commits through the ZFS intent log (SSD mirrors on the MDS/OSS),
//     so synchronous writes cost a commit latency, not a disk seek.
//   - A metadata server hop on open.
package lustre

import (
	"fmt"
	"time"

	"storagesim/internal/cache"
	"storagesim/internal/device"
	"storagesim/internal/faults"
	"storagesim/internal/fsapi"
	"storagesim/internal/fsbase"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// Config describes a Lustre instance.
type Config struct {
	// Name identifies the instance.
	Name string
	// MDSCount is the number of metadata servers (16).
	MDSCount int
	// MDSLatency is the metadata round trip charged on open.
	MDSLatency sim.Duration
	// OSSCount is the number of object storage servers (36).
	OSSCount int
	// OSTPerOSS is the storage spec behind one OSS.
	OSTPerOSS device.Spec
	// ServerNICBW is one OSS's network bandwidth per direction.
	ServerNICBW float64
	// ClientCacheBytes sizes the client page cache per mount.
	ClientCacheBytes int64
	// CacheBlockBytes is the client cache page size.
	CacheBlockBytes int64
	// RPCLatency is the per-op Lustre RPC latency (PtlRPC over Omni-Path).
	RPCLatency sim.Duration
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("lustre: missing name")
	case c.MDSCount <= 0 || c.OSSCount <= 0:
		return fmt.Errorf("lustre %s: need MDS and OSS servers", c.Name)
	case c.ServerNICBW <= 0:
		return fmt.Errorf("lustre %s: server NIC bandwidth must be positive", c.Name)
	}
	if c.ClientCacheBytes > 0 {
		cc := c.clientCache()
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("lustre %s: client %w", c.Name, err)
		}
	}
	return c.OSTPerOSS.Validate()
}

// clientCache is the per-mount client page cache, enabled by a positive
// ClientCacheBytes.
func (c *Config) clientCache() cache.Config {
	return cache.Config{BlockSize: c.CacheBlockBytes, Capacity: c.ClientCacheBytes, ReadaheadBlocks: 8}
}

// System is a running Lustre instance.
type System struct {
	cfg Config
	env *sim.Env
	fab *sim.Fabric
	ns  *fsapi.Namespace

	ossUp, ossDown *sim.Pipe
	pool           *device.Device

	// Units is the fault surface, over the OSSes (see repair.go).
	faults.Units

	// perStreamCap is one OST server's bandwidth: a stripe-1 file cannot
	// exceed it.
	perStreamCapR float64
	perStreamCapW float64
}

// New builds the system.
func New(env *sim.Env, fab *sim.Fabric, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, env: env, fab: fab, ns: fsapi.NewNamespace()}
	s.Units = faults.NewUnits("lustre "+cfg.Name, cfg.OSSCount, "OSS", s.apply)
	poolNIC := cfg.ServerNICBW * float64(cfg.OSSCount)
	s.ossUp = fab.NewPipe(cfg.Name+"/oss/up", poolNIC, 2*time.Microsecond)
	s.ossDown = fab.NewPipe(cfg.Name+"/oss/down", poolNIC, 2*time.Microsecond)
	pool, err := device.New(env, fab, cfg.OSTPerOSS.Scale(cfg.OSSCount, cfg.Name+"/ost-pool"))
	if err != nil {
		return nil, err
	}
	s.pool = pool
	s.perStreamCapR = min2(cfg.OSTPerOSS.ReadBW, cfg.ServerNICBW)
	s.perStreamCapW = min2(cfg.OSTPerOSS.WriteBW, cfg.ServerNICBW)
	return s, nil
}

// MustNew is New that panics on config errors.
func MustNew(env *sim.Env, fab *sim.Fabric, cfg Config) *System {
	s, err := New(env, fab, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the parameters.
func (s *System) Config() Config { return s.cfg }

// Namespace exposes the shared file table.
func (s *System) Namespace() *fsapi.Namespace { return s.ns }

// Derate scales the server-side capacities by f (production contention).
func (s *System) Derate(f float64) {
	s.ossUp.SetCapacity(s.ossUp.Capacity() * f)
	s.ossDown.SetCapacity(s.ossDown.Capacity() * f)
	s.pool.Derate(f)
}

// Mount attaches a compute node.
func (s *System) Mount(node string, nic *netsim.Iface) fsapi.Client {
	cl := &client{sys: s, nic: nic}
	// Cache the per-mount network paths: they are fixed for the life of the
	// mount, and a stable slice keeps the fabric's flow-class lookup
	// allocation-free on the per-op hot path.
	cl.writePath = []*sim.Pipe{nic.Dir(netsim.ClientToServer), s.ossUp}
	cl.readPath = []*sim.Pipe{s.ossDown, nic.Dir(netsim.ServerToClient)}
	var pc *cache.Cache
	if s.cfg.ClientCacheBytes > 0 {
		pc = cache.New(s.cfg.clientCache())
	}
	cl.ClientCore = fsbase.ClientCore{
		FS:      s.cfg.Name,
		Node:    node,
		NS:      s.ns,
		Backend: (*backend)(cl),
		Cache:   pc,
	}
	return cl
}

type client struct {
	sys *System
	nic *netsim.Iface
	fsbase.ClientCore

	// cached network paths (see Mount); treated as immutable.
	writePath []*sim.Pipe
	readPath  []*sim.Pipe
}

type backend client

func (c *client) writePipes() []*sim.Pipe { return c.writePath }

func (c *client) readPipes() []*sim.Pipe { return c.readPath }

// StreamWrite implements fsapi.Client: one stripe-1 flow, capped by its
// single OST.
func (c *client) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.Stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	ino := c.sys.ns.Create(path, false)
	c.sys.ns.Extend(ino, 0, total)
	c.sys.pool.StreamWrite(p, a, ioSize, float64(total), c.writePipes(), c.sys.perStreamCapW)
}

// StreamRead implements fsapi.Client.
func (c *client) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.Stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	s := c.sys
	capBps := s.perStreamCapR
	if a == fsapi.Random {
		rtt := 2*sim.PathLatency(c.readPipes()) + s.cfg.RPCLatency
		if bc := netsim.BlockingStreamCap(ioSize, rtt, capBps); bc < capBps {
			capBps = bc
		}
	}
	s.pool.StreamRead(p, a, ioSize, float64(total), c.readPipes(), capBps)
}

// --- op-level backend ---

// OpWrite implements fsbase.Backend: RPC, network, OST write, ZIL commit.
func (b *backend) OpWrite(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	s := c.sys
	s.fab.TransferAfter(p, s.cfg.RPCLatency, c.writePipes(), float64(n), s.perStreamCapW)
	s.pool.Write(p, ino.ID, off, n)
}

// OpCommit implements fsbase.Backend: a synchronous commit lands in the
// per-OST ZFS intent log (SSD mirrors) — a fixed latency paid concurrently
// across OSTs, not a device-wide barrier.
func (b *backend) OpCommit(p *sim.Proc, ino *fsapi.Inode) {
	if d := (*client)(b).sys.cfg.OSTPerOSS.FlushLatency; d > 0 {
		p.Sleep(d)
	}
}

// OpRead implements fsbase.Backend.
func (b *backend) OpRead(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	s := c.sys
	if s.cfg.RPCLatency > 0 {
		p.Sleep(s.cfg.RPCLatency)
	}
	s.pool.Read(p, ino.ID, off, n)
	s.fab.Transfer(p, c.readPipes(), float64(n), s.perStreamCapR)
}

// OpenLatency implements fsbase.Backend: one MDS round trip.
func (b *backend) OpenLatency(p *sim.Proc, ino *fsapi.Inode) {
	if d := (*client)(b).sys.cfg.MDSLatency; d > 0 {
		p.Sleep(d)
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Interface checks.
var (
	_ fsapi.Client   = (*client)(nil)
	_ fsbase.Backend = (*backend)(nil)
)
