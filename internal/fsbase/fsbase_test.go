package fsbase

import (
	"testing"
	"time"

	"storagesim/internal/cache"
	"storagesim/internal/fsapi"
	"storagesim/internal/sim"
)

// recBackend records backend traffic and charges fixed latencies.
type recBackend struct {
	writes, reads []cache.Range
	writeLat      sim.Duration
	readLat       sim.Duration
	opens         int
	commits       int
}

func (b *recBackend) OpWrite(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	b.writes = append(b.writes, cache.Range{File: ino.ID, Off: off, Len: n})
	if b.writeLat > 0 {
		p.Sleep(b.writeLat)
	}
}

func (b *recBackend) OpRead(p *sim.Proc, ino *fsapi.Inode, off, n int64) {
	b.reads = append(b.reads, cache.Range{File: ino.ID, Off: off, Len: n})
	if b.readLat > 0 {
		p.Sleep(b.readLat)
	}
}

func (b *recBackend) OpenLatency(p *sim.Proc, ino *fsapi.Inode) { b.opens++ }

func (b *recBackend) OpCommit(p *sim.Proc, ino *fsapi.Inode) { b.commits++ }

func newCore(be Backend, cacheBlocks int64, readahead int) *ClientCore {
	var c *cache.Cache
	if cacheBlocks > 0 {
		c = cache.New(cache.Config{BlockSize: 1 << 20, Capacity: cacheBlocks << 20, ReadaheadBlocks: readahead})
	}
	return &ClientCore{FS: "test", Node: "node0", NS: fsapi.NewNamespace(), Backend: be, Cache: c}
}

func TestWritebackBuffersUntilFsync(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("w", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20)
		f.WriteAt(p, 1<<20, 1<<20)
		if len(be.writes) != 0 {
			t.Error("write-back pushed before fsync")
		}
		f.Fsync(p)
	})
	e.Run()
	if len(be.writes) != 1 || be.writes[0].Len != 2<<20 {
		t.Fatalf("fsync pushed %v, want one coalesced 2MiB range", be.writes)
	}
	if be.opens != 1 {
		t.Fatalf("opens = %d", be.opens)
	}
}

func TestFsyncIdempotent(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("w", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20)
		f.Fsync(p)
		f.Fsync(p)
	})
	e.Run()
	if len(be.writes) != 1 {
		t.Fatalf("second fsync re-pushed: %v", be.writes)
	}
}

func TestCloseFlushes(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("w", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20)
		f.Close(p)
		f.Close(p) // double close is harmless
	})
	e.Run()
	if len(be.writes) != 1 {
		t.Fatalf("close flushed %d times, want 1", len(be.writes))
	}
}

func TestEvictionForcesWriteback(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 4, 0) // tiny cache: 4 MiB
	e := sim.NewEnv()
	e.Go("w", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		for i := int64(0); i < 8; i++ {
			f.WriteAt(p, i<<20, 1<<20)
		}
	})
	e.Run()
	if len(be.writes) != 4 {
		t.Fatalf("evictions pushed %d ranges, want 4", len(be.writes))
	}
}

func TestReadMissFetchesAndCaches(t *testing.T) {
	be := &recBackend{readLat: time.Millisecond}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	var firstDur, secondDur sim.Duration
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 4<<20)
		f.Fsync(p)
		core.DropCaches() // read cold, like the paper's cross-node reads
		start := p.Now()
		f.ReadAt(p, 0, 1<<20)
		firstDur = p.Now().Sub(start)
		start = p.Now()
		f.ReadAt(p, 0, 1<<20)
		secondDur = p.Now().Sub(start)
	})
	e.Run()
	if firstDur != time.Millisecond {
		t.Fatalf("first read took %v, want 1ms backend fetch", firstDur)
	}
	if secondDur != 0 {
		t.Fatalf("second read took %v, want cache hit (0)", secondDur)
	}
}

func TestReadBeyondEOFPanics(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20)
		defer func() {
			if recover() == nil {
				t.Error("EOF overrun did not panic")
			}
		}()
		f.ReadAt(p, 0, 2<<20)
	})
	e.Run()
}

func TestReadaheadFetchesAhead(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 256, 8)
	e := sim.NewEnv()
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 64<<20)
		f.Fsync(p)
		core.DropCaches()
		be.reads = nil
		f.ReadAt(p, 0, 1<<20)
		f.ReadAt(p, 1<<20, 1<<20) // arms detector, triggers readahead
		f.ReadAt(p, 2<<20, 1<<20) // should hit prefetched data
	})
	e.Run()
	// reads: miss@0, miss@1MiB, readahead burst. No backend read for third.
	if len(be.reads) != 3 {
		t.Fatalf("backend reads = %v, want miss,miss,readahead", be.reads)
	}
	if be.reads[2].Len != 8<<20 {
		t.Fatalf("readahead fetched %d bytes, want 8 MiB", be.reads[2].Len)
	}
}

func TestDropCaches(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20)
		f.Fsync(p)
		core.DropCaches()
		be.reads = nil
		f.ReadAt(p, 0, 1<<20)
	})
	e.Run()
	if len(be.reads) != 1 {
		t.Fatalf("read after DropCaches hit the cache: %v", be.reads)
	}
}

func TestCachelessClient(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 0, 0)
	e := sim.NewEnv()
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20) // direct
		f.ReadAt(p, 0, 1<<20)  // direct
		f.ReadAt(p, 0, 1<<20)  // direct again (no caching)
		f.Fsync(p)             // no-op
	})
	e.Run()
	if len(be.writes) != 1 || len(be.reads) != 2 {
		t.Fatalf("cacheless traffic: writes=%v reads=%v", be.writes, be.reads)
	}
}

func TestTruncateInvalidates(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20)
		f.Fsync(p)
		f2 := core.Open(p, "/a", true) // truncate
		if f2.Size() != 0 {
			t.Errorf("size after truncate = %d", f2.Size())
		}
		f2.WriteAt(p, 0, 1<<20)
		f2.Fsync(p)
	})
	e.Run()
	if len(be.writes) != 2 {
		t.Fatalf("writes = %v", be.writes)
	}
}

func TestRemoveUnlinksAndInvalidates(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 1<<20)
		f.Fsync(p)
		opensBefore := be.opens
		core.Remove(p, "/a")
		if be.opens != opensBefore+1 {
			t.Errorf("remove did not pay a metadata round trip")
		}
		if core.NS.Lookup("/a") != nil {
			t.Error("file survived removal")
		}
		core.Remove(p, "/missing") // rm -f: silent
		if be.opens != opensBefore+1 {
			t.Error("removing a missing path charged a round trip")
		}
		// Re-creating the path starts from scratch: the old pages must not
		// resurface as hits.
		f2 := core.Open(p, "/a", false)
		if f2.Size() != 0 {
			t.Errorf("recreated file has stale size %d", f2.Size())
		}
	})
	e.Run()
}

// TestCachedReadAllocFree pins the zero-alloc read hit: a ReadAt served
// wholly from the page cache allocates nothing.
func TestCachedReadAllocFree(t *testing.T) {
	be := &recBackend{}
	core := newCore(be, 64, 0)
	e := sim.NewEnv()
	e.Go("r", func(p *sim.Proc) {
		f := core.Open(p, "/a", true)
		f.WriteAt(p, 0, 4<<20)
		if a := testing.AllocsPerRun(1000, func() { f.ReadAt(p, 1<<20, 2<<20) }); a != 0 {
			t.Errorf("cached ReadAt: %v allocs/op, want 0", a)
		}
		if len(be.reads) != 0 {
			t.Errorf("cached reads reached the backend: %v", be.reads)
		}
	})
	e.Run()
}
