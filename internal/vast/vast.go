// Package vast models the VAST DataStore (Section III-A of the paper): a
// disaggregated, shared-everything all-flash store built from stateless
// CNodes (protocol servers) and high-availability DBox enclosures whose
// DNodes fan NVMe-over-Fabrics out to storage-class-memory (SCM) and
// hyperscale QLC flash SSDs.
//
// The mechanisms the paper's results hinge on are modeled explicitly:
//
//   - Deployment transport. Clients mount VAST over NFS; on the LC
//     machines that is NFS/TCP through a bank of gateway nodes (one pinned
//     connection per client — the bandwidth ceiling of Figures 2a and 3a-c),
//     on Wombat NFS/RDMA with nconnect=16 and multipathing (Figures 2b, 3d).
//   - Write path. A write lands on a CNode, pays the similarity-based data
//     reduction the CNodes perform on ingest, crosses the CBox↔DBox fabric,
//     and commits to multiple SCM SSDs before the ack (write-shaping that
//     makes VAST writes slower than reads — Section V-B).
//   - Read path. A read consults SCM metadata, then streams from the QLC
//     backbone through the DNode read cache. Because the backbone is flash,
//     random reads cost nearly the same as sequential ones — the paper's
//     I/O-researcher takeaway.
package vast

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

// Config describes one VAST cluster deployment.
type Config struct {
	// Name identifies the instance in pipe names and reports.
	Name string

	// CNodes is the number of protocol servers (16 on the LC instance,
	// 8 on Wombat).
	CNodes int
	// DBoxes is the number of HA enclosures (5 on LC, 4 on Wombat).
	DBoxes int
	// DNodesPerDBox is 2 in both studied instances.
	DNodesPerDBox int
	// SCMPerDBox and QLCPerDBox count SSDs per enclosure (6+22 on LC).
	SCMPerDBox, QLCPerDBox int

	// CNodeNICBW is each CNode's NIC bandwidth per direction, bytes/sec.
	CNodeNICBW float64
	// ReduceBWPerCNode is the similarity-reduction + compression ingest
	// throughput of one CNode's CPUs; writes must pass through it.
	ReduceBWPerCNode float64

	// FabricBWPerDBox is the CBox↔DBox NVMe-oF bandwidth per enclosure per
	// direction (2×50 GbE on Wombat — the scalability ceiling the paper
	// hypothesizes and our ablation AB1 confirms).
	FabricBWPerDBox float64
	// FabricLatency is the one-way NVMe-oF fabric latency.
	FabricLatency sim.Duration

	// SCMReplicas is how many SCM SSDs a write is staged to before the ack.
	SCMReplicas int

	// Transport is the client↔CNode deployment (TCP gateway or RDMA).
	Transport netsim.Transport

	// SpreadAcrossCNodes models multipath deployments where a mount's
	// nconnect connections land on different CNode VIPs, so one client can
	// use the whole CNode pool instead of being pinned to one server (the
	// Wombat deployment). TCP deployments leave this false.
	SpreadAcrossCNodes bool

	// ClientCacheBytes sizes the NFS client page cache per mount; 0
	// disables client caching.
	ClientCacheBytes int64
	// CacheBlockBytes is the page size of both client and DNode caches.
	CacheBlockBytes int64
	// DNodeCacheBytes sizes the aggregate DNode read cache; 0 disables it.
	DNodeCacheBytes int64

	// MetaLatency is the SCM metadata lookup a CNode performs per read op.
	MetaLatency sim.Duration

	// SCMStagingBytes is the capacity of the SCM write-staging tier; when
	// staged-but-unmigrated data reaches it, writers throttle to the
	// migrator's drain rate. 0 disables backpressure.
	SCMStagingBytes int64

	// Retry models the NFS client's retransmit/timeout/backoff behaviour
	// when its CNode dies: a re-pinned mount pays the retransmission rounds
	// on its next operation. The zero value keeps failover instantaneous
	// (the pre-fault-model behaviour).
	Retry netsim.RetryPolicy

	// ECParity is how many whole-DBox losses the wide-stripe erasure code
	// survives (Section III-A: stripes span enclosures, so redundancy is
	// declared per DBox). 0 defaults to min(2, DBoxes-1).
	ECParity int
	// StripeBytes is the EC stripe width used to decide which DBox an
	// extent is homed on (stripe index modulo DBoxes). 0 defaults to 1 MiB.
	StripeBytes int64
	// DecodeLatency is the extra per-op latency of reconstructing a read
	// from parity while the extent's home DBox is degraded. 0 defaults to
	// 25µs.
	DecodeLatency sim.Duration
	// DecodeReadAmp is the QLC read amplification of a degraded read (the
	// decoder fetches surviving data+parity strips instead of one strip).
	// Must be >= 1 when set; 0 defaults to 1.5.
	DecodeReadAmp float64
	// ReductionRatio is the similarity-reduction factor applied before
	// data reaches QLC (bytes on flash = bytes written / ratio). Values
	// below 1 are treated as 1.
	ReductionRatio float64
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("vast: missing name")
	case c.CNodes <= 0 || c.DBoxes <= 0 || c.DNodesPerDBox <= 0:
		return fmt.Errorf("vast %s: need at least one CNode, DBox and DNode", c.Name)
	case c.SCMPerDBox <= 0 || c.QLCPerDBox <= 0:
		return fmt.Errorf("vast %s: need SCM and QLC SSDs", c.Name)
	case c.CNodeNICBW <= 0 || c.ReduceBWPerCNode <= 0 || c.FabricBWPerDBox <= 0:
		return fmt.Errorf("vast %s: bandwidths must be positive", c.Name)
	case c.SCMReplicas <= 0:
		return fmt.Errorf("vast %s: SCM replicas must be >= 1", c.Name)
	case c.Transport == nil:
		return fmt.Errorf("vast %s: missing transport", c.Name)
	case c.ECParity < 0 || c.ECParity >= c.DBoxes:
		return fmt.Errorf("vast %s: EC parity %d must be in [0, DBoxes)", c.Name, c.ECParity)
	case c.StripeBytes < 0:
		return fmt.Errorf("vast %s: negative stripe width", c.Name)
	case c.DecodeLatency < 0:
		return fmt.Errorf("vast %s: negative decode latency", c.Name)
	case c.DecodeReadAmp != 0 && c.DecodeReadAmp < 1:
		return fmt.Errorf("vast %s: decode read amplification %g below 1", c.Name, c.DecodeReadAmp)
	}
	if err := c.Retry.Validate(); err != nil {
		return fmt.Errorf("vast %s: %w", c.Name, err)
	}
	if c.DNodeCacheBytes > 0 {
		cc := c.dnodeCache()
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("vast %s: DNode %w", c.Name, err)
		}
	}
	if c.ClientCacheBytes > 0 {
		cc := c.clientCache()
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("vast %s: client %w", c.Name, err)
		}
	}
	return nil
}

// dnodeCache is the aggregate DNode read cache, enabled by a positive
// DNodeCacheBytes.
func (c *Config) dnodeCache() cache.Config {
	return cache.Config{BlockSize: c.CacheBlockBytes, Capacity: c.DNodeCacheBytes}
}

// clientCache is the per-mount NFS client page cache, enabled by a
// positive ClientCacheBytes.
func (c *Config) clientCache() cache.Config {
	return cache.Config{BlockSize: c.CacheBlockBytes, Capacity: c.ClientCacheBytes, ReadaheadBlocks: 8}
}

// System is a running VAST instance on a simulation fabric.
type System struct {
	cfg Config
	env *sim.Env
	fab *sim.Fabric
	ns  *fsapi.Namespace

	cnodeNIC   []*netsim.Duplex
	reduce     []*sim.Pipe // per-CNode ingest processing
	cnodePool  *netsim.Duplex
	reducePool *sim.Pipe
	fabricUp   *sim.Pipe // CBox -> DBox (writes)
	fabricDown *sim.Pipe // DBox -> CBox (reads)

	scm *device.Device // pooled SCM write-staging tier
	qlc *device.Device // pooled QLC backbone

	dnodeCache *cache.Cache // server-side read cache (nil when disabled)

	// staging tracks SCM-staged bytes and runs the background SCM→QLC
	// migration (see migrate.go).
	staging *stager

	// Units is the fault surface: the CNodes are its servers and the DBoxes
	// its own redundancy units (see failover.go and repair.go). clients
	// holds every mount for failover re-pinning.
	faults.Units
	clients []*client

	nextCNode int

	// freeStarts lists the idle records of process-free requests (see
	// start.go).
	freeStarts []*startRec
}

// New builds the system, creating all pipes and devices on fab.
func New(env *sim.Env, fab *sim.Fabric, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, env: env, fab: fab, ns: fsapi.NewNamespace()}
	s.Units = faults.NewUnits("vast "+cfg.Name, cfg.CNodes, "CNode", s.apply).WithUnits(cfg.DBoxes, "DBox")
	for i := 0; i < cfg.CNodes; i++ {
		s.cnodeNIC = append(s.cnodeNIC,
			netsim.NewDuplex(fab, fmt.Sprintf("%s/cnode%d/nic", cfg.Name, i), cfg.CNodeNICBW, 2*time.Microsecond))
		s.reduce = append(s.reduce,
			fab.NewPipe(fmt.Sprintf("%s/cnode%d/reduce", cfg.Name, i), cfg.ReduceBWPerCNode, 0))
	}
	if cfg.SpreadAcrossCNodes {
		s.cnodePool = netsim.NewDuplex(fab, cfg.Name+"/cnode-pool/nic",
			cfg.CNodeNICBW*float64(cfg.CNodes), 2*time.Microsecond)
		s.reducePool = fab.NewPipe(cfg.Name+"/cnode-pool/reduce",
			cfg.ReduceBWPerCNode*float64(cfg.CNodes), 0)
	}
	fabricBW := cfg.FabricBWPerDBox * float64(cfg.DBoxes)
	s.fabricUp = fab.NewPipe(cfg.Name+"/fabric/up", fabricBW, cfg.FabricLatency)
	s.fabricDown = fab.NewPipe(cfg.Name+"/fabric/down", fabricBW, cfg.FabricLatency)

	// SCM pool: writes land on SCMReplicas SSDs before the ack, so the
	// pool's usable ingest bandwidth is the aggregate divided by the
	// replication factor.
	scmSpec := device.SCMSpec(cfg.Name+"/scm-pool").Scale(cfg.SCMPerDBox*cfg.DBoxes, cfg.Name+"/scm-pool")
	scmSpec.WriteBW /= float64(cfg.SCMReplicas)
	scm, err := device.New(env, fab, scmSpec)
	if err != nil {
		return nil, err
	}
	s.scm = scm

	qlcSpec := device.QLCSpec(cfg.Name+"/qlc-pool").Scale(cfg.QLCPerDBox*cfg.DBoxes, cfg.Name+"/qlc-pool")
	qlc, err := device.New(env, fab, qlcSpec)
	if err != nil {
		return nil, err
	}
	s.qlc = qlc

	if cfg.DNodeCacheBytes > 0 {
		s.dnodeCache = cache.New(cfg.dnodeCache())
	}
	s.staging = newStager(s)
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

// Namespace exposes the shared file table (all clients see all files).
func (s *System) Namespace() *fsapi.Namespace { return s.ns }

// Derate scales the instance's server-side capacities (CNodes, fabric,
// devices) and its transport links by f — the shared-environment
// contention model used for the paper's 10-repetition consistency runs.
func (s *System) Derate(f float64) {
	for _, nic := range s.cnodeNIC {
		nic.Derate(f)
	}
	for _, r := range s.reduce {
		r.SetCapacity(r.Capacity() * f)
	}
	if s.cnodePool != nil {
		s.cnodePool.Derate(f)
	}
	if s.reducePool != nil {
		s.reducePool.SetCapacity(s.reducePool.Capacity() * f)
	}
	s.fabricUp.SetCapacity(s.fabricUp.Capacity() * f)
	s.fabricDown.SetCapacity(s.fabricDown.Capacity() * f)
	s.scm.Derate(f)
	s.qlc.Derate(f)
	s.cfg.Transport.Derate(f)
}

// StagedBytes returns the SCM-staged bytes awaiting migration to QLC.
func (s *System) StagedBytes() int64 { return s.staging.Staged() }

// MigratedBytes returns the bytes drained to the QLC backbone so far.
func (s *System) MigratedBytes() int64 { return s.staging.Migrated() }

// FabricPipes exposes the CBox↔DBox pipes for ablation sweeps.
func (s *System) FabricPipes() (up, down *sim.Pipe) { return s.fabricUp, s.fabricDown }

// Mount attaches a compute node to the store and returns its client. Each
// mount is pinned to a CNode round-robin, as the NFS automounter spreads
// clients across the VIP pool.
func (s *System) Mount(node string, nic *netsim.Iface) fsapi.Client {
	home := s.nextCNode % s.cfg.CNodes
	s.nextCNode++
	cn := home
	if s.ServerFailed(cn) {
		cn = s.nextHealthy(cn)
	}
	cl := &client{sys: s, nic: nic, cnode: cn, home: home, id: uint64(len(s.clients))}
	s.clients = append(s.clients, cl)
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

// client is one mount. backend is the same struct viewed through the
// op-level Backend interface, keeping the hot state in one allocation.
type client struct {
	sys   *System
	nic   *netsim.Iface
	cnode int
	// id is the mount's ordinal, used as the flow id seeding the retry
	// policy's deterministic jitter.
	id uint64
	// home is the CNode the automounter originally assigned (round-robin at
	// mount time); recovery re-balancing pins the client back to it.
	home int
	// stale marks a mount whose CNode assignment just changed under it
	// (failover or recovery re-balance): the next operation pays the NFS
	// retransmit penalty before using the new path.
	stale bool
	fsbase.ClientCore

	// Resolved paths are cached per mount: op-level workloads resolve the
	// path on every operation, and a stable pipe slice keeps the fabric's
	// flow-class lookup allocation-free. pathCNode tags which CNode the
	// cache was built for — FailServer re-pins clients by mutating cnode, so
	// a stale tag forces a rebuild (op-level failover stays seamless).
	pathCNode   int
	cachedWrite netsim.Path
	cachedRead  netsim.Path
}

type backend client

// maybeRetry charges the NFS retransmission penalty on the first operation
// after the client's CNode assignment changed under it (failover or
// recovery re-balance). With no retry policy configured the re-pin is
// instantaneous — the pre-fault-model behaviour. A soft mount that
// exhausts its retry budget proceeds anyway: the simulator has no error
// channel at the fsapi layer, so the budget only bounds the time paid.
func (c *client) maybeRetry(p *sim.Proc) {
	if !c.stale {
		return
	}
	c.stale = false
	if !c.sys.cfg.Retry.Enabled() {
		return
	}
	c.sys.cfg.Retry.Retry(p, c.id, func() bool {
		if c.sys.ServerFailed(c.cnode) {
			// The replacement died during the backoff; chase the VIP again.
			c.cnode = c.sys.nextHealthy(c.cnode)
			return false
		}
		return true
	})
}

// writePath resolves the pipes of a client→SCM write stream (cached per
// mount until a CNode failover re-pins the client).
func (c *client) writePath() netsim.Path {
	if c.pathCNode != c.cnode || c.cachedWrite.Pipes == nil {
		c.rebuildPaths()
	}
	return c.cachedWrite
}

// readPath resolves the pipes of a QLC→client read stream (cached like
// writePath).
func (c *client) readPath() netsim.Path {
	if c.pathCNode != c.cnode || c.cachedRead.Pipes == nil {
		c.rebuildPaths()
	}
	return c.cachedRead
}

// rebuildPaths re-resolves both directions through the transport for the
// client's current CNode assignment.
func (c *client) rebuildPaths() {
	s := c.sys
	var up, down []*sim.Pipe
	if s.cfg.SpreadAcrossCNodes {
		up = []*sim.Pipe{
			s.cnodePool.Dir(netsim.ClientToServer),
			s.reducePool,
			s.fabricUp,
		}
		down = []*sim.Pipe{
			s.cnodePool.Dir(netsim.ServerToClient),
			s.fabricDown,
		}
	} else {
		up = []*sim.Pipe{
			s.cnodeNIC[c.cnode].Dir(netsim.ClientToServer),
			s.reduce[c.cnode],
			s.fabricUp,
		}
		down = []*sim.Pipe{
			s.cnodeNIC[c.cnode].Dir(netsim.ServerToClient),
			s.fabricDown,
		}
	}
	c.cachedWrite = s.cfg.Transport.Path(c.nic, netsim.ClientToServer, up)
	c.cachedRead = s.cfg.Transport.Path(c.nic, netsim.ServerToClient, down)
	c.pathCNode = c.cnode
}

// StreamWrite implements fsapi.Client: the whole phase is one fair-shared
// flow from the client through gateway/rails, the CNode's reduction engine
// and the fabric into the SCM staging pool.
func (c *client) StreamWrite(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.Stamp(p)
	c.maybeRetry(p)
	if fsapi.Aborted(p) {
		return // deadline fired during the retransmit penalty
	}
	c.extend(path, total)
	if !c.sys.staging.admit(p, total) {
		return // aborted while throttled behind the staging tier
	}
	pa := c.writePath()
	c.sys.scm.StreamWrite(p, a, ioSize, float64(total), pa.Pipes, pa.FlowCap)
	// Whatever landed on SCM migrates even if the client aborted mid-flow:
	// the staging drain is server-side state, not request state.
	c.sys.staging.migrate(total)
}

// StreamRead implements fsapi.Client. Random streams additionally carry the
// blocking-request ceiling (no readahead pipelining over NFS for random
// offsets).
func (c *client) StreamRead(p *sim.Proc, path string, a fsapi.Access, ioSize, total int64) {
	c.Stamp(p)
	c.maybeRetry(p)
	if fsapi.Aborted(p) {
		return
	}
	pa := c.readPath()
	c.sys.qlc.StreamRead(p, a, ioSize, float64(total), pa.Pipes, readCap(pa, a, ioSize))
}

// extend creates path if needed and grows it to total bytes: a stream
// write's namespace update.
func (c *client) extend(path string, total int64) {
	ino := c.sys.ns.Create(path, false)
	c.sys.ns.Extend(ino, 0, total)
}

// readCap is a read stream's rate cap on pa: the path's, and for random
// streams also the blocking-request ceiling.
func readCap(pa netsim.Path, a fsapi.Access, ioSize int64) float64 {
	capBps := pa.FlowCap
	if a == fsapi.Random {
		rtt := 2*pa.Latency() + pa.RPCLatency
		if bc := netsim.BlockingStreamCap(ioSize, rtt, pa.MinCapacity()); capBps == 0 || bc < capBps {
			capBps = bc
		}
	}
	return capBps
}

// --- op-level backend ---

// OpWrite implements fsbase.Backend: RPC, stream through the write path,
// commit to SCM replicas.
func (b *backend) OpWrite(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	c.maybeRetry(p)
	if fsapi.Aborted(p) {
		return
	}
	if !c.sys.staging.admit(p, n) {
		return
	}
	pa := c.writePath()
	c.sys.fab.TransferAfter(p, pa.RPCLatency, pa.Pipes, float64(n), pa.FlowCap)
	c.sys.scm.Write(p, ino.ID, off, n)
	c.sys.staging.migrate(n)
}

// OpRead implements fsbase.Backend: RPC + SCM metadata lookup, then serve
// from the DNode cache or the QLC backbone.
func (b *backend) OpRead(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	c := (*client)(b)
	c.maybeRetry(p)
	if fsapi.Aborted(p) {
		return
	}
	s := c.sys
	pa := c.readPath()
	if d := pa.RPCLatency + s.cfg.MetaLatency; d > 0 {
		p.Sleep(d)
	}
	if s.dnodeCache != nil {
		var buf [4]cache.Range
		hit, misses := s.dnodeCache.Lookup(buf[:0], ino.ID, off, n)
		if hit > 0 {
			// Served from DNode DRAM: network path only.
			s.fab.Transfer(p, pa.Pipes, float64(hit), pa.FlowCap)
		}
		for _, m := range misses {
			if fsapi.Aborted(p) {
				return
			}
			s.qlcOpRead(p, ino.ID, m.Off, m.Len)
			s.fab.Transfer(p, pa.Pipes, float64(m.Len), pa.FlowCap)
			s.dnodeCache.Insert(ino.ID, m.Off, m.Len, false)
		}
		return
	}
	s.qlcOpRead(p, ino.ID, off, n)
	s.fab.Transfer(p, pa.Pipes, float64(n), pa.FlowCap)
}

// OpCommit implements fsbase.Backend: the SCM staging commit is already
// part of OpWrite (the write acks only after landing on the SCM replicas),
// so fsync adds nothing further.
func (b *backend) OpCommit(p *sim.Proc, ino *fsapi.Inode) {}

// OpenLatency implements fsbase.Backend: one metadata round trip.
func (b *backend) OpenLatency(p *sim.Proc, ino *fsapi.Inode) {
	c := (*client)(b)
	c.maybeRetry(p)
	if d := c.metaLatency(); d > 0 {
		p.Sleep(d)
	}
}

// metaLatency is the cost of one metadata round trip: the RPC and the
// SCM metadata lookup.
func (c *client) metaLatency() sim.Duration {
	return c.readPath().RPCLatency + c.sys.cfg.MetaLatency
}

// Interface checks.
var (
	_ fsapi.Client   = (*client)(nil)
	_ fsapi.Starter  = (*client)(nil)
	_ fsbase.Backend = (*backend)(nil)
)
