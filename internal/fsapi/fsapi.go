// Package fsapi defines the POSIX-flavoured client interface every
// simulated storage system (VAST, GPFS, Lustre, node-local NVMe) exposes
// and the IOR and DLIO engines program against.
//
// Two levels of interaction mirror the two experiment families in the
// paper:
//
//   - Op level: Open/ReadAt/WriteAt/Fsync/Close with per-operation latency,
//     used by the single-node fsync tests and the DLIO sample pipeline.
//   - Flow level: StreamRead/StreamWrite move a whole phase's bytes as one
//     fair-shared flow, used by the large IOR scalability sweeps where the
//     paper sizes I/O to defeat caches.
package fsapi

import (
	"fmt"

	"storagesim/internal/device"
	"storagesim/internal/sim"
)

// Access re-exports the device package's pattern type for convenience.
type Access = device.Access

// Pattern constants.
const (
	Sequential = device.Sequential
	Random     = device.Random
)

// Client is a per-compute-node mount of a file system.
type Client interface {
	// FSName identifies the file system ("vast", "gpfs", ...).
	FSName() string
	// NodeName identifies the compute node this mount belongs to.
	NodeName() string

	// Open returns a handle to path, creating the file if needed and
	// truncating it when truncate is set.
	Open(p *sim.Proc, path string, truncate bool) File

	// StreamWrite writes total bytes to path as one flow with the given
	// spatial pattern and per-op transfer size.
	StreamWrite(p *sim.Proc, path string, a Access, ioSize, total int64)
	// StreamRead reads total bytes from path likewise.
	StreamRead(p *sim.Proc, path string, a Access, ioSize, total int64)

	// Remove unlinks path (a metadata round trip); removing a missing path
	// is a no-op, like rm -f.
	Remove(p *sim.Proc, path string)

	// DropCaches invalidates client-side caches — the simulator's handle on
	// the paper's "a different client read the requests than the one who
	// generated the writes" methodology.
	DropCaches()
}

// Aborted reports whether the calling process carries a fired cancellation
// token (sim.Abort) — the abortable-op convention of the client resilience
// layer. Every Client method is a best-effort cancellation region: a
// request coordinator attaches a token to the serving process, and
// implementations check Aborted at their stage boundaries (between RPC,
// staging, device and migration phases; between the ops of a multi-op
// stream; after every retry-backoff round) and return early without
// completing the remaining work. In-flight fabric transfers are cancelled
// immediately by the kernel (sim.Fabric.Transfer registers the flow on the
// token), so the dominant blocking state unwinds without waiting for a
// stage boundary. Work already performed stays performed and stays billed —
// an aborted request wasted real bandwidth, which is what the retry-storm
// studies measure. Operations on processes without a token never abort.
func Aborted(p *sim.Proc) bool { return p.Aborted() }

// FlowTagger is implemented by mounts that can attribute their fabric
// traffic to a tenant. A tagged mount stamps the tag onto the calling
// process at the entry of every data-path operation, so all bytes it moves
// are accounted under Fabric.TagBytes(tag) and form per-tenant fair-share
// classes. The multi-tenant traffic engine mints one tagged mount per
// tenant×node; untagged mounts behave exactly as before.
type FlowTagger interface {
	// SetFlowTag sets the mount's attribution tag ("" = untagged).
	SetFlowTag(tag string)
}

// Starter is implemented by mounts that can serve a flow-level request
// without a simulated process. Each method runs the pre-transfer code of
// its blocking counterpart at the call, in the same order, moves the bytes
// through continuations (sim.Fabric.TransferThen), runs what the blocking
// form runs after its transfer, and calls done where the blocking form
// would have returned — before the method returns when nothing waits.
// The calendar sees the same events at the same instants either way, so a
// caller may pick either form without moving the schedule.
//
// A method reports false, having changed nothing, when its blocking form
// would park before its transfer (a retransmit penalty to pay, a full
// staging tier to wait on): the caller then serves the request with a
// process. Starter calls carry no cancellation token, so resilient
// requests, which carry one, keep their processes. The traffic engine
// serves its plain requests through a Starter when the mount offers one.
type Starter interface {
	// StartStreamWrite is StreamWrite without a process.
	StartStreamWrite(path string, a Access, ioSize, total int64, done func()) bool
	// StartStreamRead is StreamRead without a process.
	StartStreamRead(path string, a Access, ioSize, total int64, done func()) bool
	// StartMeta is Open(path, false) then Close without a process.
	StartMeta(path string, done func()) bool
}

// File is an open handle.
type File interface {
	// Path returns the file's path.
	Path() string
	// Size returns the current file size in bytes.
	Size() int64
	// WriteAt writes n bytes at offset off (data content is not modeled).
	WriteAt(p *sim.Proc, off, n int64)
	// ReadAt reads n bytes at offset off.
	ReadAt(p *sim.Proc, off, n int64)
	// Fsync flushes all buffered dirty data for this file to the storage
	// system's durable commit point.
	Fsync(p *sim.Proc)
	// Close releases the handle (close-to-open consistency models may
	// flush or invalidate here).
	Close(p *sim.Proc)
}

// Inode is the shared metadata record of one file in a Namespace.
type Inode struct {
	ID   uint64
	Path string
	Size int64
}

// Namespace is the server-side file table shared by all clients of one file
// system instance.
type Namespace struct {
	byPath map[string]*Inode
	byID   map[uint64]*Inode
	nextID uint64
}

// NewNamespace returns an empty namespace. IDs start at 1 so that 0 can
// mean "no file" in cache bookkeeping.
func NewNamespace() *Namespace {
	return &Namespace{byPath: map[string]*Inode{}, byID: map[uint64]*Inode{}, nextID: 1}
}

// Lookup returns the inode for path, or nil.
func (ns *Namespace) Lookup(path string) *Inode { return ns.byPath[path] }

// ByID returns the inode with the given id, or nil.
func (ns *Namespace) ByID(id uint64) *Inode { return ns.byID[id] }

// Create returns the inode for path, creating it on first use and
// truncating when requested.
func (ns *Namespace) Create(path string, truncate bool) *Inode {
	ino, ok := ns.byPath[path]
	if !ok {
		ino = &Inode{ID: ns.nextID, Path: path}
		ns.nextID++
		ns.byPath[path] = ino
		ns.byID[ino.ID] = ino
	}
	if truncate {
		ino.Size = 0
	}
	return ino
}

// Extend grows the inode to cover [off, off+n).
func (ns *Namespace) Extend(ino *Inode, off, n int64) {
	if end := off + n; end > ino.Size {
		ino.Size = end
	}
}

// Remove unlinks path, returning the removed inode (nil when absent).
func (ns *Namespace) Remove(path string) *Inode {
	ino, ok := ns.byPath[path]
	if !ok {
		return nil
	}
	delete(ns.byPath, path)
	delete(ns.byID, ino.ID)
	return ino
}

// Len returns the number of files.
func (ns *Namespace) Len() int { return len(ns.byPath) }

// TotalBytes sums every file's size — the live data a redundancy scheme
// must reconstruct after a unit loss. The map iteration order is
// irrelevant: integer addition commutes, so the sum is deterministic.
func (ns *Namespace) TotalBytes() int64 {
	var total int64
	for _, ino := range ns.byPath {
		total += ino.Size
	}
	return total
}

// ValidateRead panics when a read exceeds the file size: benchmarks always
// read what they (or a peer) wrote, so an overrun is a harness bug.
func ValidateRead(ino *Inode, off, n int64) {
	if off < 0 || n < 0 || off+n > ino.Size {
		panic(fmt.Sprintf("fsapi: read [%d,+%d) beyond EOF %d of %s", off, n, ino.Size, ino.Path))
	}
}
