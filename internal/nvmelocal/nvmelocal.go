// Package nvmelocal models the node-local NVMe storage on Wombat (Section
// IV-B): three Samsung 970 PRO SSDs per compute node behind a local mount
// point. It is the paper's baseline for the Wombat comparisons (Figures 2b
// and 3d).
//
// Three behaviours define the comparison and are modeled:
//
//   - The OS page cache absorbs writes at memory speed up to the dirty
//     threshold, after which write-back throttling pins the writer to
//     device speed (the paper deliberately allows write-back caching "to
//     replicate a realistic user scenario").
//   - fsync on a consumer SSD drains a volatile write cache: a device-wide
//     barrier whose cost dominates the synchronous write test — the reason
//     RDMA-deployed VAST beats local flash by ~5× there.
//   - An NVMe SSD cannot serve remote reads: when another node needs the
//     data, it is copied over the node interconnect from the owner's
//     device (the paper's round-robin copy methodology).
package nvmelocal

import (
	"fmt"

	"storagesim/internal/cache"
	"storagesim/internal/device"
	"storagesim/internal/fsapi"
	"storagesim/internal/fsbase"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// Config describes the per-node NVMe setup.
type Config struct {
	// Name prefixes pipe names.
	Name string
	// PerNode is the device spec of one node's NVMe array (3× 970 PRO).
	PerNode device.Spec
	// MemBW is the page-cache ingest bandwidth (memcpy into the cache).
	MemBW float64
	// DirtyLimitBytes is the write-back throttle threshold (vm.dirty_ratio
	// of node RAM); beyond it a writer runs at device speed.
	DirtyLimitBytes int64
	// PageCacheBytes sizes the op-level page cache per node.
	PageCacheBytes int64
	// CacheBlockBytes is the page size.
	CacheBlockBytes int64
	// Interconnect is the node-to-node network used for remote reads; nil
	// restricts reads to node-local data.
	Interconnect *netsim.LinkBank
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("nvmelocal: missing name")
	case c.MemBW <= 0:
		return fmt.Errorf("nvmelocal %s: memory bandwidth must be positive", c.Name)
	case c.DirtyLimitBytes < 0:
		return fmt.Errorf("nvmelocal %s: negative dirty limit", c.Name)
	}
	if c.PageCacheBytes > 0 {
		cc := c.pageCache()
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("nvmelocal %s: page %w", c.Name, err)
		}
	}
	return c.PerNode.Validate()
}

// pageCache is the per-node page cache, enabled by a positive
// PageCacheBytes.
func (c *Config) pageCache() cache.Config {
	return cache.Config{BlockSize: c.CacheBlockBytes, Capacity: c.PageCacheBytes, ReadaheadBlocks: 16}
}

// System manages the per-node devices. Unlike the shared file systems, each
// node has its own namespace (a file written on node A does not exist on
// node B until copied).
type System struct {
	cfg Config
	env *sim.Env
	fab *sim.Fabric

	nodes map[string]*nodeState
	order []string // deterministic iteration

	// Fault state (see faults.go): prevailing cluster-wide derates.
	linkHealth  float64
	mediaHealth float64
}

type nodeState struct {
	name      string
	nic       *netsim.Iface
	dev       *device.Device
	memIn     *sim.Pipe
	memInPath []*sim.Pipe // cached {memIn}; treated as immutable
	ns        *fsapi.Namespace
	dirty     int64
	lastDrain sim.Time
	client    *client
	failed    bool
}

// New builds the system; nodes attach lazily on Mount.
func New(env *sim.Env, fab *sim.Fabric, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, env: env, fab: fab, nodes: map[string]*nodeState{},
		linkHealth: 1, mediaHealth: 1}, nil
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

// Mount attaches a compute node's local NVMe.
func (s *System) Mount(node string, nic *netsim.Iface) fsapi.Client {
	st, ok := s.nodes[node]
	if !ok {
		spec := s.cfg.PerNode
		spec.Name = fmt.Sprintf("%s/%s/nvme", s.cfg.Name, node)
		st = &nodeState{
			name:  node,
			nic:   nic,
			dev:   device.MustNew(s.env, s.fab, spec),
			memIn: s.fab.NewPipe(fmt.Sprintf("%s/%s/pagecache", s.cfg.Name, node), s.cfg.MemBW, 0),
			ns:    fsapi.NewNamespace(),
		}
		// Stable single-pipe path for page-cache absorption: write bursts hit
		// this on every call, so don't re-allocate the slice each time.
		st.memInPath = []*sim.Pipe{st.memIn}
		s.nodes[node] = st
		s.order = append(s.order, node)
	}
	if st.client == nil {
		cl := &client{sys: s, node: st}
		var pc *cache.Cache
		if s.cfg.PageCacheBytes > 0 {
			pc = cache.New(s.cfg.pageCache())
		}
		cl.core = fsbase.ClientCore{
			FS:      s.cfg.Name,
			Node:    node,
			NS:      st.ns,
			Backend: (*backend)(cl),
			Cache:   pc,
		}
		st.client = cl
	}
	return st.client
}

// Peer returns the node that node i reads from under the paper's
// round-robin copy scheme: the previous node in mount order (itself when
// alone).
func (s *System) Peer(node string) string {
	if len(s.order) <= 1 {
		return node
	}
	for i, n := range s.order {
		if n == node {
			return s.order[(i+len(s.order)-1)%len(s.order)]
		}
	}
	return node
}

type client struct {
	sys  *System
	node *nodeState
	core fsbase.ClientCore

	// One-entry cache of the cross-node read path: the round-robin peer
	// only changes while nodes are still mounting, so tag by source node
	// and rebuild on mismatch.
	peerSrc  *nodeState
	peerPath []*sim.Pipe
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

// StreamWrite implements fsapi.Client: the page cache absorbs up to the
// remaining dirty budget at memory speed; the rest runs at device speed
// (write-back throttling).
func (c *client) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.core.Stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	s := c.sys
	st := c.node
	ino := st.ns.Create(path, false)
	st.ns.Extend(ino, 0, total)
	st.drainDirty(p.Now())
	absorb := s.cfg.DirtyLimitBytes - st.dirty
	if absorb > total {
		absorb = total
	}
	if absorb < 0 {
		absorb = 0
	}
	if absorb > 0 {
		s.fab.Transfer(p, st.memInPath, float64(absorb), 0)
		st.dirty += absorb
	}
	if fsapi.Aborted(p) {
		return // absorbed pages stay dirty; the device spill is abandoned
	}
	if rest := total - absorb; rest > 0 {
		st.dev.StreamWrite(p, a, ioSize, float64(rest), nil, 0)
	}
}

// drainDirty credits background write-back since the last accounting
// instant: the kernel flusher pushes dirty pages at roughly half the device
// write bandwidth while the node is otherwise busy.
func (st *nodeState) drainDirty(now sim.Time) {
	elapsed := now.Sub(st.lastDrain).Seconds()
	st.lastDrain = now
	drained := int64(elapsed * st.dev.Spec().WriteBW * 0.5)
	st.dirty -= drained
	if st.dirty < 0 {
		st.dirty = 0
	}
}

// StreamRead implements fsapi.Client: data lives on the round-robin peer's
// device and crosses the interconnect (local read when this node is its
// own peer).
func (c *client) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.core.Stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	s := c.sys
	src := s.nodes[s.Peer(c.node.name)]
	if src == nil {
		src = c.node
	}
	var path2 []*sim.Pipe
	if src != c.node && s.cfg.Interconnect != nil {
		if c.peerSrc != src {
			link := s.cfg.Interconnect.Links()[0]
			c.peerPath = []*sim.Pipe{
				src.nic.Dir(netsim.ClientToServer),
				link.Dir(netsim.ClientToServer),
				c.node.nic.Dir(netsim.ServerToClient),
			}
			c.peerSrc = src
		}
		path2 = c.peerPath
	}
	src.dev.StreamRead(p, a, ioSize, float64(total), path2, 0)
}

// --- op-level backend ---

// OpWrite implements fsbase.Backend: a direct device write.
func (b *backend) OpWrite(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	c.node.dev.Write(p, ino.ID, off, n)
}

// OpCommit implements fsbase.Backend: fsync on a consumer SSD drains the
// volatile write cache — a device-wide barrier (see device.Flush).
func (b *backend) OpCommit(p *sim.Proc, ino *fsapi.Inode) {
	(*client)(b).node.dev.Flush(p)
}

// OpRead implements fsbase.Backend: local device read (the op-level path
// serves DLIO and fsync tests, which read node-local data).
func (b *backend) OpRead(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	c.node.dev.Read(p, ino.ID, off, n)
}

// OpenLatency implements fsbase.Backend: local open is free at this
// granularity.
func (b *backend) OpenLatency(p *sim.Proc, ino *fsapi.Inode) {}

// Interface checks.
var (
	_ fsapi.Client   = (*client)(nil)
	_ fsbase.Backend = (*backend)(nil)
)
