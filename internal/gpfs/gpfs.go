// Package gpfs models IBM Spectrum Scale (GPFS) as deployed on Lassen
// (Section IV-B): 16 PowerPC64 NSD servers, each fronting a 1.4 PB
// GPFS-RAID (declustered RAID over nearline disks) network-shared disk,
// reached from every compute node over the InfiniBand SAN — no gateways, no
// per-connection ceiling, which is why GPFS scales where the TCP deployment
// of VAST plateaus.
//
// Two cache layers drive the paper's GPFS results and are modeled
// explicitly:
//
//   - The client pagepool with aggressive sequential readahead: sequential
//     reads stream at near-network speeds (≈14.5 GB/s/node in the paper's
//     takeaway) while random reads cannot be prefetched and fall through to
//     the spinning media, whose seek-bound effective bandwidth is the 90%
//     collapse the paper reports.
//   - NSD-server-side caching: a freshly written small dataset (ResNet-50's
//     150 KB JPEGs) is served from server memory, which is why GPFS wins the
//     DLIO comparisons on Lassen.
package gpfs

import (
	"fmt"
	"time"

	"storagesim/internal/cache"
	"storagesim/internal/device"
	"storagesim/internal/fsapi"
	"storagesim/internal/fsbase"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// Config describes a GPFS instance.
type Config struct {
	// Name identifies the instance.
	Name string
	// NSDServers is the number of network-shared-disk servers (16).
	NSDServers int
	// ServerNICBW is each NSD server's network bandwidth per direction.
	ServerNICBW float64
	// RaidPerServer is the storage array spec behind one NSD server.
	RaidPerServer device.Spec
	// ServerCacheBytes sizes the aggregate NSD-side memory cache.
	ServerCacheBytes int64
	// ServerMemBW is the aggregate rate at which server-cache hits are
	// served (memory + protocol path inside the servers).
	ServerMemBW float64
	// ClientCacheBytes sizes the client pagepool per mount.
	ClientCacheBytes int64
	// CacheBlockBytes is the page size of both cache layers.
	CacheBlockBytes int64
	// ClientStreamCap bounds one client node's aggregate read throughput
	// (pagepool copy + NSD protocol); the paper's ≈14.5 GB/s per node.
	ClientStreamCap float64
	// ClientWriteCap bounds one client node's aggregate write throughput
	// (write-behind flushing through the client stack).
	ClientWriteCap float64
	// RPCLatency is the per-op NSD protocol latency.
	RPCLatency sim.Duration
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("gpfs: missing name")
	case c.NSDServers <= 0:
		return fmt.Errorf("gpfs %s: need NSD servers", c.Name)
	case c.ServerNICBW <= 0 || c.ServerMemBW <= 0 || c.ClientStreamCap <= 0 || c.ClientWriteCap <= 0:
		return fmt.Errorf("gpfs %s: bandwidths must be positive", c.Name)
	case c.CacheBlockBytes <= 0:
		return fmt.Errorf("gpfs %s: cache block size must be positive", c.Name)
	}
	if c.ServerCacheBytes > 0 {
		cc := c.serverCache()
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("gpfs %s: server %w", c.Name, err)
		}
	}
	if c.ClientCacheBytes > 0 {
		cc := c.clientCache()
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("gpfs %s: client %w", c.Name, err)
		}
	}
	return c.RaidPerServer.Validate()
}

// serverCache is the aggregate NSD-side memory cache, enabled by a
// positive ServerCacheBytes.
func (c *Config) serverCache() cache.Config {
	return cache.Config{BlockSize: c.CacheBlockBytes, Capacity: c.ServerCacheBytes}
}

// clientCache is the per-mount pagepool, enabled by a positive
// ClientCacheBytes. GPFS prefetch is aggressive.
func (c *Config) clientCache() cache.Config {
	return cache.Config{BlockSize: c.CacheBlockBytes, Capacity: c.ClientCacheBytes, ReadaheadBlocks: 16}
}

// System is a running GPFS instance.
type System struct {
	cfg Config
	env *sim.Env
	fab *sim.Fabric
	ns  *fsapi.Namespace

	// nsdPool aggregates the NSD servers' NICs: clients stripe wide, so
	// the pool behaves as one fat pipe per direction.
	nsdUp, nsdDown *sim.Pipe
	// serverMem serves server-cache hits.
	serverMem *sim.Pipe
	raid      *device.Device
	serverCch *cache.Cache

	// Fault state (see faults.go): failed marks out-of-service NSD servers;
	// linkHealth and mediaHealth are the prevailing cluster-wide derates.
	// rebuilt is each failed server's reconstructed fraction (see
	// repair.go): a server 60% rebuilt contributes 0.6 of its share to the
	// pools, so health recovers incrementally as a rebuild progresses.
	failed      []bool
	rebuilt     []float64
	linkHealth  float64
	mediaHealth float64
}

// New builds the system on the fabric.
func New(env *sim.Env, fab *sim.Fabric, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, env: env, fab: fab, ns: fsapi.NewNamespace(),
		failed: make([]bool, cfg.NSDServers), rebuilt: make([]float64, cfg.NSDServers),
		linkHealth: 1, mediaHealth: 1}
	poolBW := cfg.ServerNICBW * float64(cfg.NSDServers)
	s.nsdUp = fab.NewPipe(cfg.Name+"/nsd/up", poolBW, 2*time.Microsecond)
	s.nsdDown = fab.NewPipe(cfg.Name+"/nsd/down", poolBW, 2*time.Microsecond)
	s.serverMem = fab.NewPipe(cfg.Name+"/nsd/mem", cfg.ServerMemBW, 0)
	raid, err := device.New(env, fab, cfg.RaidPerServer.Scale(cfg.NSDServers, cfg.Name+"/raid-pool"))
	if err != nil {
		return nil, err
	}
	s.raid = raid
	if cfg.ServerCacheBytes > 0 {
		s.serverCch = cache.New(cfg.serverCache())
	}
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

// Derate scales the server-side capacities by f (production contention:
// GPFS is the machine-wide file system everyone on Lassen uses).
func (s *System) Derate(f float64) {
	s.nsdUp.SetCapacity(s.nsdUp.Capacity() * f)
	s.nsdDown.SetCapacity(s.nsdDown.Capacity() * f)
	s.serverMem.SetCapacity(s.serverMem.Capacity() * f)
	s.raid.Derate(f)
}

// Mount attaches a compute node. Each mount gets its own client-stack
// pipes: the per-node ceilings of the GPFS client (pagepool copy, NSD
// protocol threads) that all ranks on the node share.
func (s *System) Mount(node string, nic *netsim.Iface) fsapi.Client {
	cl := &client{
		sys:       s,
		nic:       nic,
		stackUp:   s.fab.NewPipe(s.cfg.Name+"/"+node+"/stack-up", s.cfg.ClientWriteCap, 0),
		stackDown: s.fab.NewPipe(s.cfg.Name+"/"+node+"/stack-down", s.cfg.ClientStreamCap, 0),
	}
	// The network paths never change after mount; cache them once so the
	// per-op hot path hands the fabric a stable slice (stable slices also
	// keep the flow-class signature lookup allocation-free).
	cl.writePath = []*sim.Pipe{cl.stackUp, nic.Dir(netsim.ClientToServer), s.nsdUp}
	cl.readPath = []*sim.Pipe{s.nsdDown, nic.Dir(netsim.ServerToClient), cl.stackDown}
	cl.memReadPath = append([]*sim.Pipe{s.serverMem}, cl.readPath...)
	var pc *cache.Cache
	if s.cfg.ClientCacheBytes > 0 {
		pc = cache.New(s.cfg.clientCache())
	}
	cl.core = fsbase.ClientCore{
		FS:      s.cfg.Name,
		Node:    node,
		NS:      s.ns,
		Backend: (*backend)(cl),
		Cache:   pc,
	}
	return cl
}

type client struct {
	sys       *System
	nic       *netsim.Iface
	stackUp   *sim.Pipe // per-node write ceiling
	stackDown *sim.Pipe // per-node read ceiling
	core      fsbase.ClientCore

	// cached network paths (see Mount); treated as immutable.
	writePath   []*sim.Pipe
	readPath    []*sim.Pipe
	memReadPath []*sim.Pipe // server-memory-fronted read path
}

type backend client

// FSName implements fsapi.Client.
func (c *client) FSName() string { return c.core.FSName() }

// NodeName implements fsapi.Client.
func (c *client) NodeName() string { return c.core.NodeName() }

// Open implements fsapi.Client.
func (c *client) Open(p *sim.Proc, path string, truncate bool) fsapi.File {
	return c.core.Open(p, path, truncate)
}

// Remove implements fsapi.Client.
func (c *client) Remove(p *sim.Proc, path string) { c.core.Remove(p, path) }

// DropCaches implements fsapi.Client.
func (c *client) DropCaches() { c.core.DropCaches() }

// SetFlowTag implements fsapi.FlowTagger.
func (c *client) SetFlowTag(tag string) { c.core.SetFlowTag(tag) }

// writePipes is the network path of a client→NSD write.
func (c *client) writePipes() []*sim.Pipe { return c.writePath }

// readPipes is the network path of an NSD→client read.
func (c *client) readPipes() []*sim.Pipe { return c.readPath }

// StreamWrite implements fsapi.Client: one flow into the RAID pool.
func (c *client) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.core.Stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	ino := c.sys.ns.Create(path, false)
	c.sys.ns.Extend(ino, 0, total)
	c.sys.raid.StreamWrite(p, a, ioSize, float64(total), c.writePipes(), 0)
}

// StreamRead implements fsapi.Client. Sequential streams ride the
// readahead pipeline and are served through server memory at up to the
// client streaming cap; random streams fall through to the spinning media
// and additionally pay the blocking-request ceiling.
func (c *client) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.core.Stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	s := c.sys
	if a == fsapi.Sequential {
		s.fab.Transfer(p, c.memReadPath, float64(total), 0)
		return
	}
	// A random reader issues blocking requests with no prefetch: each op
	// pays the network round trip plus a single-spindle random service, so
	// one rank sustains only tens of MB/s — GPFS's per-node random floor.
	rtt := 2*sim.PathLatency(c.readPipes()) + s.cfg.RPCLatency
	capBps := netsim.BlockingStreamCap(ioSize, rtt, s.raid.PerStreamBW(a, false, ioSize))
	s.raid.StreamRead(p, a, ioSize, float64(total), c.readPipes(), capBps)
}

// --- op-level backend ---

// OpWrite implements fsbase.Backend: push over the SAN and commit to RAID.
func (b *backend) OpWrite(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	s := c.sys
	if s.cfg.RPCLatency > 0 {
		p.Sleep(s.cfg.RPCLatency)
	}
	s.fab.Transfer(p, c.writePipes(), float64(n), 0)
	s.raid.Write(p, ino.ID, off, n)
	if s.serverCch != nil {
		// NSD servers keep freshly written data in memory.
		s.serverCch.Insert(ino.ID, off, n, false)
	}
}

// OpRead implements fsbase.Backend: server-cache hits come from NSD
// memory; misses seek the spinning pool.
func (b *backend) OpRead(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	s := c.sys
	if s.cfg.RPCLatency > 0 {
		p.Sleep(s.cfg.RPCLatency)
	}
	if s.serverCch != nil {
		var buf [4]cache.Range
		hit, misses := s.serverCch.Lookup(buf[:0], ino.ID, off, n)
		if hit > 0 {
			s.fab.Transfer(p, c.memReadPath, float64(hit), 0)
		}
		for _, m := range misses {
			s.raid.Read(p, ino.ID, m.Off, m.Len)
			s.fab.Transfer(p, c.readPipes(), float64(m.Len), 0)
			s.serverCch.Insert(ino.ID, m.Off, m.Len, false)
		}
		return
	}
	s.raid.Read(p, ino.ID, off, n)
	s.fab.Transfer(p, c.readPipes(), float64(n), 0)
}

// OpCommit implements fsbase.Backend: a synchronous commit forces the
// GPFS-RAID parity/log update — the spinning-media cost that lets the
// SCM-backed VAST win the low-concurrency fsync test (Figure 3a).
func (b *backend) OpCommit(p *sim.Proc, ino *fsapi.Inode) {
	if d := (*client)(b).sys.cfg.RaidPerServer.FlushLatency; d > 0 {
		p.Sleep(d)
	}
}

// OpenLatency implements fsbase.Backend.
func (b *backend) OpenLatency(p *sim.Proc, ino *fsapi.Inode) {
	if d := (*client)(b).sys.cfg.RPCLatency; d > 0 {
		p.Sleep(d)
	}
}

// Interface checks.
var (
	_ fsapi.Client   = (*client)(nil)
	_ fsbase.Backend = (*backend)(nil)
)
