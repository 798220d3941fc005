// Package unifyfs models UnifyFS, the paper's other example of a highly
// configurable storage system (Section I): a user-level shared file system
// that aggregates the compute nodes' local storage into one namespace,
// "which allows users to configure the data management policy, such as the
// number of dedicated I/O servers and the data placement strategy". Both
// knobs are first-class here:
//
//   - Placement: LocalFirst writes land on the writer's own device (reads
//     of a peer's data cross the interconnect — the checkpoint/restart
//     sweet spot), while RoundRobin stripes chunks across all nodes
//     (balanced reads, remote-heavy writes).
//   - IOServersPerNode: the user-level service processes that every
//     request must pass through; a small pool throttles op-level
//     throughput exactly the way a misconfigured UnifyFS deployment does.
//
// UnifyFS bypasses the kernel page cache (it is a user-level burst
// buffer), so there is no client cache layer and fsync costs only the
// local device flush.
package unifyfs

import (
	"fmt"

	"storagesim/internal/device"
	"storagesim/internal/faults"
	"storagesim/internal/fsapi"
	"storagesim/internal/netsim"
	"storagesim/internal/sim"
)

// Placement selects the data placement strategy.
type Placement int

const (
	// LocalFirst writes every chunk to the writer's node.
	LocalFirst Placement = iota
	// RoundRobin stripes chunks across all mounted nodes.
	RoundRobin
)

// String names the placement.
func (p Placement) String() string {
	if p == LocalFirst {
		return "local-first"
	}
	return "round-robin"
}

// Config describes a UnifyFS deployment.
type Config struct {
	// Name prefixes pipe names.
	Name string
	// PerNode is the node-local device backing the burst buffer.
	PerNode device.Spec
	// Placement is the data placement strategy.
	Placement Placement
	// ChunkBytes is the placement granularity (UnifyFS default 1 MiB).
	ChunkBytes int64
	// IOServersPerNode bounds concurrent requests served per node.
	IOServersPerNode int
	// ServerLatency is the user-level RPC cost per op.
	ServerLatency sim.Duration
	// Interconnect carries remote chunk traffic; nil confines data to the
	// writing node (LocalFirst only).
	Interconnect *netsim.LinkBank
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("unifyfs: missing name")
	case c.ChunkBytes <= 0:
		return fmt.Errorf("unifyfs %s: chunk size must be positive", c.Name)
	case c.IOServersPerNode <= 0:
		return fmt.Errorf("unifyfs %s: need at least one I/O server per node", c.Name)
	case c.ServerLatency < 0:
		return fmt.Errorf("unifyfs %s: negative server latency", c.Name)
	case c.Placement == RoundRobin && c.Interconnect == nil:
		return fmt.Errorf("unifyfs %s: round-robin placement needs an interconnect", c.Name)
	}
	return c.PerNode.Validate()
}

// System is a running UnifyFS instance: a shared namespace over per-node
// devices.
type System struct {
	cfg Config
	env *sim.Env
	fab *sim.Fabric
	ns  *fsapi.Namespace

	nodes []*nodeState
	// chunkOwner maps an inode to its chunks' owning node indices, keyed
	// by chunk index, so a remove drops one entry.
	chunkOwner map[uint64]map[int64]int

	// Units is the fault surface, over the mounted nodes (one server per
	// entry of nodes; see repair.go).
	faults.Units
}

type nodeState struct {
	name string
	nic  *netsim.Iface
	dev  *device.Device
	svc  *sim.Resource
}

// New builds the system; nodes attach via Mount.
func New(env *sim.Env, fab *sim.Fabric, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:        cfg,
		env:        env,
		fab:        fab,
		ns:         fsapi.NewNamespace(),
		chunkOwner: map[uint64]map[int64]int{},
	}
	s.Units = faults.NewUnits("unifyfs "+cfg.Name, 0, "node", s.apply)
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

// Config returns the deployment parameters.
func (s *System) Config() Config { return s.cfg }

// Namespace exposes the shared file table.
func (s *System) Namespace() *fsapi.Namespace { return s.ns }

// Nodes returns the number of mounted nodes.
func (s *System) Nodes() int { return len(s.nodes) }

// Mount attaches a compute node, contributing its local device to the
// shared space.
func (s *System) Mount(node string, nic *netsim.Iface) fsapi.Client {
	spec := s.cfg.PerNode
	spec.Name = fmt.Sprintf("%s/%s/dev", s.cfg.Name, node)
	st := &nodeState{
		name: node,
		nic:  nic,
		dev:  device.MustNew(s.env, s.fab, spec),
		svc:  sim.NewResource(s.env, fmt.Sprintf("%s/%s/iosrv", s.cfg.Name, node), s.cfg.IOServersPerNode),
	}
	s.nodes = append(s.nodes, st)
	s.AddServer()
	return &client{sys: s, node: st, idx: len(s.nodes) - 1}
}

// owner resolves (and on writes, assigns) the node owning a chunk.
func (s *System) owner(ino uint64, chunk int64, writerIdx int, assign bool) int {
	owners := s.chunkOwner[ino]
	if idx, ok := owners[chunk]; ok {
		return idx
	}
	if !assign {
		return writerIdx // unwritten chunk: treat as local
	}
	idx := writerIdx
	if s.cfg.Placement == RoundRobin {
		idx = int(chunk) % len(s.nodes)
	}
	if owners == nil {
		owners = map[int64]int{}
		s.chunkOwner[ino] = owners
	}
	owners[chunk] = idx
	return idx
}

type client struct {
	sys  *System
	node *nodeState
	idx  int

	// tag attributes this mount's fabric traffic (fsapi.FlowTagger); tagID
	// caches its interned handle (valid while tagFor == tag).
	tag    string
	tagID  sim.FlowTag
	tagFor string

	// Per-owner interconnect paths, cached on first use (chunk sweeps hit
	// the same few owners over and over); indexed by owner node, one slice
	// per direction. Treated as immutable once built.
	toOwner   map[*nodeState][]*sim.Pipe
	fromOwner map[*nodeState][]*sim.Pipe
}

// FSName implements fsapi.Client.
func (c *client) FSName() string { return c.sys.cfg.Name }

// NodeName implements fsapi.Client.
func (c *client) NodeName() string { return c.node.name }

// DropCaches implements fsapi.Client: UnifyFS has no client page cache.
func (c *client) DropCaches() {}

// SetFlowTag implements fsapi.FlowTagger.
func (c *client) SetFlowTag(tag string) { c.tag = tag }

// stamp applies the mount's flow tag to the calling process at every
// data-path entry (see fsbase.ClientCore.Stamp for the convention). The
// interned handle is cached so the per-op stamp is an integer write.
func (c *client) stamp(p *sim.Proc) {
	if c.tagFor != c.tag {
		c.tagID = p.Env().InternTag(c.tag)
		c.tagFor = c.tag
	}
	p.SetFlowTagID(c.tagID)
}

// Remove implements fsapi.Client.
func (c *client) Remove(p *sim.Proc, path string) {
	c.stamp(p)
	ino := c.sys.ns.Lookup(path)
	if ino == nil {
		return
	}
	if c.sys.cfg.ServerLatency > 0 {
		p.Sleep(c.sys.cfg.ServerLatency)
	}
	c.sys.ns.Remove(path)
	delete(c.sys.chunkOwner, ino.ID)
}

// Open implements fsapi.Client.
func (c *client) Open(p *sim.Proc, path string, truncate bool) fsapi.File {
	c.stamp(p)
	if c.sys.cfg.ServerLatency > 0 {
		p.Sleep(c.sys.cfg.ServerLatency)
	}
	return &file{c: c, ino: c.sys.ns.Create(path, truncate)}
}

// remotePath returns the interconnect pipes from the owner node back to
// this client (reads) or out to the owner (writes), cached per owner.
func (c *client) remotePath(owner *nodeState, toOwner bool) []*sim.Pipe {
	cache := c.fromOwner
	if toOwner {
		if c.toOwner == nil {
			c.toOwner = map[*nodeState][]*sim.Pipe{}
		}
		cache = c.toOwner
	} else if cache == nil {
		c.fromOwner = map[*nodeState][]*sim.Pipe{}
		cache = c.fromOwner
	}
	if path, ok := cache[owner]; ok {
		return path
	}
	link := c.sys.cfg.Interconnect.Links()[0]
	var path []*sim.Pipe
	if toOwner {
		path = []*sim.Pipe{
			c.node.nic.Dir(netsim.ClientToServer),
			link.Dir(netsim.ClientToServer),
			owner.nic.Dir(netsim.ServerToClient),
		}
	} else {
		path = []*sim.Pipe{
			owner.nic.Dir(netsim.ClientToServer),
			link.Dir(netsim.ClientToServer),
			c.node.nic.Dir(netsim.ServerToClient),
		}
	}
	cache[owner] = path
	return path
}

// chunkIO serves one op-level chunk access on its owner.
func (c *client) chunkIO(p *sim.Proc, ino *fsapi.Inode, off, n int64, write, assign bool) {
	s := c.sys
	ownerIdx := s.owner(ino.ID, off/s.cfg.ChunkBytes, c.idx, assign)
	owner := s.nodes[ownerIdx]
	owner.svc.Acquire(p, 1)
	if ownerIdx != c.idx {
		s.fab.TransferAfter(p, s.cfg.ServerLatency, c.remotePath(owner, write), float64(n), 0)
	} else if s.cfg.ServerLatency > 0 {
		p.Sleep(s.cfg.ServerLatency)
	}
	if write {
		owner.dev.Write(p, ino.ID, off, n)
	} else {
		owner.dev.Read(p, ino.ID, off, n)
	}
	owner.svc.Release(1)
}

// localRemoteSplit returns how many of total bytes stay local under the
// placement for a file written by (or read from) this node.
func (c *client) localRemoteSplit(total int64) (local, remote int64) {
	if c.sys.cfg.Placement == LocalFirst || len(c.sys.nodes) == 1 {
		return total, 0
	}
	local = total / int64(len(c.sys.nodes))
	return local, total - local
}

// StreamWrite implements fsapi.Client: local share to the own device,
// remote share across the interconnect to the peers' devices in parallel.
func (c *client) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	s := c.sys
	ino := s.ns.Create(path, false)
	s.ns.Extend(ino, 0, total)
	// Record ownership at chunk granularity for later op-level access.
	for chunk := int64(0); chunk*s.cfg.ChunkBytes < total; chunk++ {
		s.owner(ino.ID, chunk, c.idx, true)
	}
	local, remote := c.localRemoteSplit(total)
	c.streamSplit(p, a, ioSize, local, remote, true)
}

// StreamRead implements fsapi.Client. With LocalFirst placement a reader
// that is not the writer pulls everything across the interconnect; the
// engine models the common IOR reorder case by checking chunk ownership of
// chunk 0.
func (c *client) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.stamp(p)
	if fsapi.Aborted(p) {
		return
	}
	s := c.sys
	ino := s.ns.Lookup(path)
	ownerIdx := c.idx
	if ino != nil {
		ownerIdx = s.owner(ino.ID, 0, c.idx, false)
	}
	var local, remote int64
	if s.cfg.Placement == RoundRobin {
		local, remote = c.localRemoteSplit(total)
	} else if ownerIdx == c.idx {
		local, remote = total, 0
	} else {
		local, remote = 0, total
	}
	c.streamSplit(p, a, ioSize, local, remote, false)
}

// streamSplit issues the local and remote shares as parallel flows and
// waits for both. Spawned children inherit neither the caller's abort
// token nor its flow tag (both are per-process), so each half is stamped
// with the mount's tag, and the request's token is propagated explicitly:
// each half re-checks it on entry and its fabric transfers register on
// it, letting a deadline unwind both halves in flight.
func (c *client) streamSplit(p *sim.Proc, a fsapi.Access, ioSize, local, remote int64, write bool) {
	s := c.sys
	ab := p.AbortSignal()
	wg := sim.NewWaitGroup(p.Env())
	if local > 0 {
		wg.Go(c.node.name+"/local", func(p *sim.Proc) {
			c.stamp(p)
			p.SetAbort(ab)
			if p.Aborted() {
				return
			}
			if write {
				c.node.dev.StreamWrite(p, a, ioSize, float64(local), nil, 0)
			} else {
				c.node.dev.StreamRead(p, a, ioSize, float64(local), nil, 0)
			}
		})
	}
	if remote > 0 {
		// Remote share: spread across the peer devices (model as the
		// neighbour's device plus the interconnect hop).
		peer := s.nodes[(c.idx+1)%len(s.nodes)]
		path := c.remotePath(peer, write)
		wg.Go(c.node.name+"/remote", func(p *sim.Proc) {
			c.stamp(p)
			p.SetAbort(ab)
			if p.Aborted() {
				return
			}
			if write {
				peer.dev.StreamWrite(p, a, ioSize, float64(remote), path, 0)
			} else {
				peer.dev.StreamRead(p, a, ioSize, float64(remote), path, 0)
			}
		})
	}
	wg.Wait(p)
}

type file struct {
	c   *client
	ino *fsapi.Inode
}

// Path implements fsapi.File.
func (f *file) Path() string { return f.ino.Path }

// Size implements fsapi.File.
func (f *file) Size() int64 { return f.ino.Size }

// WriteAt implements fsapi.File: chunk-granular placement and service.
func (f *file) WriteAt(p *sim.Proc, off, n int64) {
	if n <= 0 {
		return
	}
	f.c.sys.ns.Extend(f.ino, off, n)
	f.forEachChunk(off, n, func(coff, cn int64) {
		f.c.chunkIO(p, f.ino, coff, cn, true, true)
	})
}

// ReadAt implements fsapi.File.
func (f *file) ReadAt(p *sim.Proc, off, n int64) {
	if n <= 0 {
		return
	}
	fsapi.ValidateRead(f.ino, off, n)
	f.forEachChunk(off, n, func(coff, cn int64) {
		f.c.chunkIO(p, f.ino, coff, cn, false, false)
	})
}

// forEachChunk splits [off,+n) on chunk boundaries.
func (f *file) forEachChunk(off, n int64, fn func(coff, cn int64)) {
	cb := f.c.sys.cfg.ChunkBytes
	for n > 0 {
		cn := cb - off%cb
		if cn > n {
			cn = n
		}
		fn(off, cn)
		off += cn
		n -= cn
	}
}

// Fsync implements fsapi.File: UnifyFS laminates on the local device only.
func (f *file) Fsync(p *sim.Proc) {
	f.c.node.dev.Flush(p)
}

// Close implements fsapi.File.
func (f *file) Close(p *sim.Proc) {}

// Interface checks.
var _ fsapi.Client = (*client)(nil)
