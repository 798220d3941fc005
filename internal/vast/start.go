package vast

import (
	"fmt"

	"storagesim/internal/fsapi"
)

// Process-free requests (fsapi.Starter). Each Start method runs its
// blocking counterpart's code up to the transfer at the call, in the same
// order and through the same helpers, moves the bytes with
// Device.StreamThen, and runs the blocking form's tail as a continuation
// of the flow's completion. The calendar sees the same events at the same
// instants as it does for a process in the blocking form (MODEL.md §11,
// "Plain requests start no process"). A method declines, having changed
// nothing, where the blocking form would park before its transfer: a
// pending NFS retransmit (stale), a full SCM staging tier, or, for
// metadata, a file whose dirty pages Close would write back.

// startRec is one process-free request's tail, a pooled record whose
// closures are bound once, so the path allocates nothing.
type startRec struct {
	sys   *System
	c     *client
	bytes int64        // a write's staged bytes
	ino   *fsapi.Inode // a metadata request's file
	done  func()

	writeFn func() // a write's tail: the staging migration, then done
	closeFn func() // a metadata request's Close, then done
}

// getStart draws a tail record for c's request, finished by done.
func (c *client) getStart(done func()) *startRec {
	s := c.sys
	var r *startRec
	if n := len(s.freeStarts); n > 0 {
		r = s.freeStarts[n-1]
		s.freeStarts[n-1] = nil
		s.freeStarts = s.freeStarts[:n-1]
	} else {
		r = &startRec{sys: s}
		r.writeFn = r.writeTail
		r.closeFn = r.close
	}
	r.c, r.done = c, done
	return r
}

// finish frees the record and calls done, where the blocking form
// returns.
func (r *startRec) finish() {
	done := r.done
	r.c, r.ino, r.done = nil, nil, nil
	r.sys.freeStarts = append(r.sys.freeStarts, r)
	done()
}

// StartStreamWrite implements fsapi.Starter: StreamWrite without a process.
func (c *client) StartStreamWrite(path string, a fsapi.Access, ioSize, total int64, done func()) bool {
	s := c.sys
	if c.stale || s.staging.full(total) {
		return false
	}
	tag := c.Tag(s.env)
	c.extend(path, total)
	s.staging.stage(total)
	pa := c.writePath()
	r := c.getStart(done)
	r.bytes = total
	s.scm.StreamThen(a, true, ioSize, float64(total), pa.Pipes, pa.FlowCap, tag, r.writeFn)
	return true
}

// writeTail is StreamWrite after its transfer: the staged bytes start
// migrating to QLC.
func (r *startRec) writeTail() {
	r.sys.staging.migrate(r.bytes)
	r.finish()
}

// StartStreamRead implements fsapi.Starter: StreamRead without a process.
func (c *client) StartStreamRead(path string, a fsapi.Access, ioSize, total int64, done func()) bool {
	if c.stale {
		return false
	}
	tag := c.Tag(c.sys.env)
	pa := c.readPath()
	c.sys.qlc.StreamThen(a, false, ioSize, float64(total), pa.Pipes, readCap(pa, a, ioSize), tag, done)
	return true
}

// StartMeta implements fsapi.Starter: Open(path, false) and Close without
// a process. The open's metadata round trip is a timer; Close runs when
// it fires.
func (c *client) StartMeta(path string, done func()) bool {
	if c.stale || c.dirty(path) {
		return false
	}
	c.Tag(c.sys.env)
	r := c.getStart(done)
	r.ino = c.OpenInode(path, false)
	if d := c.metaLatency(); d > 0 {
		c.sys.env.After(d, r.closeFn)
	} else {
		r.close()
	}
	return true
}

// dirty reports whether path has dirty pages in the client cache, which
// Close would write back.
func (c *client) dirty(path string) bool {
	if c.Cache == nil {
		return false
	}
	ino := c.NS.Lookup(path)
	return ino != nil && c.Cache.DirtyBytes(ino.ID) > 0
}

// close is Close after a process-free open: it repeats Close's flush
// check. StartMeta declined a file with dirty pages, and the traffic
// engine, the one caller, never writes through a mount's page cache, so a
// file that is dirty here is an engine bug, not a write-back to model.
func (r *startRec) close() {
	if c := r.c; c.Cache != nil {
		if ranges := c.Cache.FlushFileRanges(r.ino.ID); len(ranges) > 0 {
			panic(fmt.Sprintf("vast: %s turned dirty during a process-free open on %s: %d ranges to write back",
				r.ino.Path, c.Node, len(ranges)))
		}
	}
	r.finish()
}
