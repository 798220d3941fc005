// Package fsbase factors the client-side mechanics shared by the simulated
// file systems: a write-back page cache in front of a system-specific
// backend, fsync semantics, readahead-driven reads, and close-to-open
// invalidation. The vast, gpfs, lustre and nvmelocal clients embed
// ClientCore, which supplies their FSName, NodeName, Open, Remove,
// DropCaches and SetFlowTag, and provide only their network/server/device
// paths via the Backend interface plus the flow-level stream methods.
// unifyfs routes every operation through its chunk placement instead and
// does not use the core.
package fsbase

import (
	"storagesim/internal/cache"
	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
)

// Backend is what a storage system must provide for op-level I/O on one
// client mount. All methods are fully timed: they block the process for the
// network, server and device costs of the operation.
type Backend interface {
	// OpWrite pushes [off,+n) durably to the storage system (called from
	// Fsync and cache eviction, or directly by cache-less clients).
	OpWrite(p *sim.Proc, ino *fsapi.Inode, off, n int64)
	// OpRead fetches [off,+n) from the storage system into the client
	// (called on client-cache miss, including readahead ranges).
	OpRead(p *sim.Proc, ino *fsapi.Inode, off, n int64)
	// OpenLatency is charged once per Open (metadata RPC).
	OpenLatency(p *sim.Proc, ino *fsapi.Inode)
	// OpCommit is charged once per fsync after the dirty data has been
	// pushed: the durable-commit cost of the system (RAID parity commit,
	// intent-log write, NVMe cache drain). May be a no-op.
	OpCommit(p *sim.Proc, ino *fsapi.Inode)
}

// ClientCore implements the cached op-level half of fsapi.Client.
// Embed it in a concrete client and implement the stream methods there.
type ClientCore struct {
	FS      string
	Node    string
	NS      *fsapi.Namespace
	Backend Backend
	// Cache is the client page cache; nil models a cache-less client
	// (direct I/O).
	Cache *cache.Cache
	// FlowTag attributes this mount's fabric traffic to a tenant (see
	// fsapi.FlowTagger); "" is the untagged default.
	FlowTag string

	// tagID caches the interned handle of FlowTag (valid while tagFor ==
	// FlowTag), so per-operation stamping is an integer write instead of a
	// string intern.
	tagID  sim.FlowTag
	tagFor string
}

// SetFlowTag implements fsapi.FlowTagger.
func (c *ClientCore) SetFlowTag(tag string) { c.FlowTag = tag }

// Stamp applies the mount's flow tag to the calling process, so every
// fabric flow the ensuing operation starts is attributed to this mount's
// tenant. It assigns unconditionally — an untagged mount clears any stale
// tag a shared process may carry from a previous mount. The op-level core
// stamps its own entry points; concrete clients must call Stamp at the top
// of their stream methods.
func (c *ClientCore) Stamp(p *sim.Proc) {
	if c.tagFor != c.FlowTag {
		c.tagID = p.Env().InternTag(c.FlowTag)
		c.tagFor = c.FlowTag
	}
	p.SetFlowTagID(c.tagID)
}

// FSName implements fsapi.Client.
func (c *ClientCore) FSName() string { return c.FS }

// NodeName implements fsapi.Client.
func (c *ClientCore) NodeName() string { return c.Node }

// DropCaches implements fsapi.Client.
func (c *ClientCore) DropCaches() {
	if c.Cache == nil {
		return
	}
	// Rebuild rather than walk: cheapest way to drop everything.
	cfg := c.Cache.Config()
	*c.Cache = *cache.New(cfg)
}

// Remove implements fsapi.Client: one metadata round trip, then the inode
// and its cached pages are gone.
func (c *ClientCore) Remove(p *sim.Proc, path string) {
	c.Stamp(p)
	ino := c.NS.Lookup(path)
	if ino == nil {
		return
	}
	c.Backend.OpenLatency(p, ino) // unlink costs a metadata RPC like open
	c.NS.Remove(path)
	if c.Cache != nil {
		c.Cache.InvalidateFile(ino.ID)
	}
}

// Open implements fsapi.Client.
func (c *ClientCore) Open(p *sim.Proc, path string, truncate bool) fsapi.File {
	c.Stamp(p)
	ino := c.NS.Create(path, truncate)
	if truncate && c.Cache != nil {
		c.Cache.InvalidateFile(ino.ID)
	}
	c.Backend.OpenLatency(p, ino)
	return &file{client: c, ino: ino}
}

type file struct {
	client *ClientCore
	ino    *fsapi.Inode
	closed bool
}

// Path implements fsapi.File.
func (f *file) Path() string { return f.ino.Path }

// Size implements fsapi.File.
func (f *file) Size() int64 { return f.ino.Size }

// WriteAt implements fsapi.File. With a cache the write lands dirty in the
// page cache (evictions force synchronous write-back of the victims, which
// is how a cache smaller than the working set degrades to device speed).
// Cache-less clients push straight to the backend.
func (f *file) WriteAt(p *sim.Proc, off, n int64) {
	if n <= 0 {
		return
	}
	c := f.client
	c.Stamp(p)
	c.NS.Extend(f.ino, off, n)
	if c.Cache == nil {
		c.Backend.OpWrite(p, f.ino, off, n)
		return
	}
	evicted := c.Cache.Insert(f.ino.ID, off, n, true)
	for _, ev := range evicted {
		if p.Aborted() {
			// The victims already left the cache, so the write-back
			// of the remaining ones is dropped with the request.
			return
		}
		if ino := c.NS.ByID(ev.File); ino != nil {
			c.Backend.OpWrite(p, ino, ev.Off, ev.Len)
		}
	}
}

// ReadAt implements fsapi.File: page-cache lookup, backend fetch of the
// miss ranges, then readahead when the pattern is sequential.
func (f *file) ReadAt(p *sim.Proc, off, n int64) {
	if n <= 0 {
		return
	}
	c := f.client
	c.Stamp(p)
	fsapi.ValidateRead(f.ino, off, n)
	if c.Cache == nil {
		c.Backend.OpRead(p, f.ino, off, n)
		return
	}
	var buf [4]cache.Range
	_, misses := c.Cache.Lookup(buf[:0], f.ino.ID, off, n)
	for _, m := range misses {
		if p.Aborted() {
			return
		}
		mlen := clampToEOF(f.ino, m.Off, m.Len)
		if mlen <= 0 {
			continue
		}
		c.Backend.OpRead(p, f.ino, m.Off, mlen)
		c.Cache.Insert(f.ino.ID, m.Off, mlen, false)
	}
	if p.Aborted() {
		return
	}
	if ra := c.Cache.ReadaheadRange(f.ino.ID, off, n); ra.Len > 0 {
		ralen := clampToEOF(f.ino, ra.Off, ra.Len)
		if ralen > 0 {
			c.Backend.OpRead(p, f.ino, ra.Off, ralen)
			c.Cache.Insert(f.ino.ID, ra.Off, ralen, false)
		}
	}
}

// Fsync implements fsapi.File: all dirty bytes of the file go durably to
// the backend.
func (f *file) Fsync(p *sim.Proc) {
	c := f.client
	c.Stamp(p)
	if c.Cache == nil {
		return // nothing buffered client-side
	}
	ranges := c.Cache.FlushFileRanges(f.ino.ID)
	for _, r := range ranges {
		if p.Aborted() {
			return // durability is abandoned with the request
		}
		// The kernel coalesces write-back into ranged bursts; push each
		// contiguous dirty extent as one backend write.
		c.Backend.OpWrite(p, f.ino, r.Off, clampLen(f.ino, r))
	}
	if len(ranges) > 0 {
		c.Backend.OpCommit(p, f.ino)
	}
}

// Close implements fsapi.File: flush (close-to-open consistency) without
// invalidation; the paper's cross-node read methodology is modeled by
// DropCaches on the reading client instead.
func (f *file) Close(p *sim.Proc) {
	if f.closed {
		return
	}
	f.closed = true
	f.Fsync(p)
}

// clampToEOF trims a block-rounded range to the file size.
func clampToEOF(ino *fsapi.Inode, off, n int64) int64 {
	if off >= ino.Size {
		return 0
	}
	if off+n > ino.Size {
		return ino.Size - off
	}
	return n
}

// clampLen trims a cache range to the file size (dirty ranges are
// block-rounded and may overhang EOF).
func clampLen(ino *fsapi.Inode, r cache.Range) int64 {
	return clampToEOF(ino, r.Off, r.Len)
}
