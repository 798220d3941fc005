// Package cache implements a block-granular LRU page cache with sequential
// readahead detection and write-back dirty tracking. It is the model behind
// every cache in the simulated systems: the OS page cache on compute nodes,
// GPFS's client-side pagepool (whose readahead makes sequential reads fly
// and whose thrashing makes random reads collapse), and the VAST DNode read
// cache.
//
// The cache is pure bookkeeping: it answers "which bytes hit, which ranges
// miss, what got evicted" and the file-system models attach simulated time
// to those outcomes.
package cache

import (
	"fmt"
	"slices"
)

// Range is a half-open byte range [Off, Off+Len) within a file.
type Range struct {
	File uint64
	Off  int64
	Len  int64
}

// String renders "file:off+len".
func (r Range) String() string { return fmt.Sprintf("%d:%d+%d", r.File, r.Off, r.Len) }

// Config parameterizes a cache.
type Config struct {
	// BlockSize is the cache block (page) size in bytes.
	BlockSize int64
	// Capacity is the total cache size in bytes; rounded down to whole
	// blocks.
	Capacity int64
	// ReadaheadBlocks is how many blocks ahead the cache prefetches once a
	// file's access pattern looks sequential. 0 disables readahead.
	ReadaheadBlocks int
}

// Validate reports the first problem with the config.
func (c *Config) Validate() error {
	switch {
	case c.BlockSize <= 0:
		return fmt.Errorf("cache: block size must be positive")
	case c.Capacity < c.BlockSize:
		return fmt.Errorf("cache: capacity %d smaller than one block", c.Capacity)
	case c.ReadaheadBlocks < 0:
		return fmt.Errorf("cache: negative readahead")
	}
	return nil
}

// Stats counts cache outcomes in bytes and operations.
type Stats struct {
	HitBytes   int64
	MissBytes  int64
	Insertions int64
	Evictions  int64
	// DirtyEvictedBytes counts write-back traffic forced by eviction.
	DirtyEvictedBytes int64
}

// HitRatio returns hit bytes over total looked-up bytes (0 when idle).
func (s Stats) HitRatio() float64 {
	total := s.HitBytes + s.MissBytes
	if total == 0 {
		return 0
	}
	return float64(s.HitBytes) / float64(total)
}

type blockKey struct {
	file  uint64
	index int64
}

type entry struct {
	key   blockKey
	dirty bool
	file  *fileState
	// intrusive LRU list
	prev, next *entry
	// intrusive list of the file's resident blocks (unordered)
	fprev, fnext *entry
}

// fileState is the per-file index: the sequential-pattern detector plus
// the file's resident blocks, so flush and invalidate never scan the whole
// cache. It lives from a file's first access until InvalidateFile.
type fileState struct {
	nextSeq  int64 // next sequential block index
	seqScore int   // sequential streak length
	dirty    int64 // dirty resident blocks
	head     *entry
}

// Cache is the LRU cache. Not safe for concurrent use; in the simulator all
// accesses are serialized by the event loop.
type Cache struct {
	cfg     Config
	capBlk  int64
	blocks  map[blockKey]*entry
	lruHead *entry // most recently used
	lruTail *entry // least recently used
	stats   Stats
	files   map[uint64]*fileState
}

// New returns an empty cache; it panics on an invalid config (configs are
// static model parameters, so this is a programming error).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:    cfg,
		capBlk: cfg.Capacity / cfg.BlockSize,
		blocks: map[blockKey]*entry{},
		files:  map[uint64]*fileState{},
	}
}

// fileOf returns file's index, creating it on first access.
func (c *Cache) fileOf(file uint64) *fileState {
	fs := c.files[file]
	if fs == nil {
		fs = &fileState{}
		c.files[file] = fs
	}
	return fs
}

// Config returns the cache parameters.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return len(c.blocks) }

// Lookup checks [off, off+size) of file: hit bytes are counted and
// refreshed in LRU order; missing bytes are returned as coalesced ranges
// (block-aligned). It also updates the sequential-pattern detector.
func (c *Cache) Lookup(file uint64, off, size int64) (hitBytes int64, misses []Range) {
	if size <= 0 {
		return 0, nil
	}
	bs := c.cfg.BlockSize
	first := off / bs
	last := (off + size - 1) / bs
	fs := c.fileOf(file)
	var missStart, missLen int64 = -1, 0
	flush := func() {
		if missStart >= 0 {
			misses = append(misses, Range{File: file, Off: missStart, Len: missLen})
			missStart, missLen = -1, 0
		}
	}
	for b := first; b <= last; b++ {
		// bytes of the request inside this block
		lo := max64(off, b*bs)
		hi := min64(off+size, (b+1)*bs)
		n := hi - lo
		if e, ok := c.blocks[blockKey{file, b}]; ok {
			c.touch(e)
			hitBytes += n
			c.stats.HitBytes += n
			flush()
		} else {
			c.stats.MissBytes += n
			if missStart < 0 {
				missStart = b * bs
				missLen = 0
			}
			missLen += bs
		}
	}
	flush()
	// Sequential detection at block granularity.
	if first == fs.nextSeq || fs.seqScore == 0 && first == 0 {
		fs.seqScore++
	} else {
		fs.seqScore = 0
	}
	fs.nextSeq = last + 1
	return hitBytes, misses
}

// ReadaheadRange returns the block range the cache wants prefetched after
// the given access, or a zero-length range when the pattern is not
// sequential (or readahead is disabled). The caller fetches it and calls
// Insert.
func (c *Cache) ReadaheadRange(file uint64, off, size int64) Range {
	fs := c.files[file]
	if c.cfg.ReadaheadBlocks == 0 || fs == nil || fs.seqScore < 2 {
		return Range{}
	}
	bs := c.cfg.BlockSize
	start := fs.nextSeq // next unread block
	var missLen int64
	for i := 0; i < c.cfg.ReadaheadBlocks; i++ {
		if _, ok := c.blocks[blockKey{file, start + int64(i)}]; ok {
			break
		}
		missLen += bs
	}
	return Range{File: file, Off: start * bs, Len: missLen}
}

// Insert makes [off, off+size) of file resident (rounded out to blocks),
// marking the blocks dirty when dirty is set. Evicted dirty blocks are
// returned so the caller can charge write-back I/O.
func (c *Cache) Insert(file uint64, off, size int64, dirty bool) (evictedDirty []Range) {
	if size <= 0 {
		return nil
	}
	bs := c.cfg.BlockSize
	first := off / bs
	last := (off + size - 1) / bs
	fs := c.fileOf(file)
	for b := first; b <= last; b++ {
		key := blockKey{file, b}
		if e, ok := c.blocks[key]; ok {
			if dirty && !e.dirty {
				e.dirty = true
				fs.dirty++
			}
			c.touch(e)
			continue
		}
		c.stats.Insertions++
		// A full cache evicts its LRU block first and reuses its entry.
		var e *entry
		if int64(len(c.blocks)) >= c.capBlk {
			e = c.evictOne()
			if e.dirty {
				evictedDirty = append(evictedDirty, Range{File: e.key.file, Off: e.key.index * bs, Len: bs})
			}
		} else {
			e = new(entry)
		}
		*e = entry{key: key, dirty: dirty, file: fs}
		if dirty {
			fs.dirty++
		}
		c.blocks[key] = e
		c.pushFront(e)
		fs.link(e)
	}
	return evictedDirty
}

// DirtyBytes returns the number of dirty resident bytes for file (all files
// when file is 0 and zero is not a real file id in the caller's scheme).
func (c *Cache) DirtyBytes(file uint64) int64 {
	var n int64
	if file != 0 {
		if fs := c.files[file]; fs != nil {
			n = fs.dirty
		}
	} else {
		for _, fs := range c.files {
			n += fs.dirty
		}
	}
	return n * c.cfg.BlockSize
}

// FlushFile clears dirty flags on file's blocks and returns the byte count
// the caller must write back (fsync).
func (c *Cache) FlushFile(file uint64) int64 {
	var n int64
	for _, r := range c.FlushFileRanges(file) {
		n += r.Len
	}
	return n
}

// FlushFileRanges clears dirty flags on file's blocks and returns the
// coalesced dirty ranges in ascending offset order, so the caller can
// write them back preserving sequentiality. A clean file costs O(1); a
// dirty one walks only that file's blocks.
func (c *Cache) FlushFileRanges(file uint64) []Range {
	fs := c.files[file]
	if fs == nil || fs.dirty == 0 {
		return nil
	}
	idxs := make([]int64, 0, fs.dirty)
	for e := fs.head; e != nil; e = e.fnext {
		if e.dirty {
			e.dirty = false
			idxs = append(idxs, e.key.index)
		}
	}
	fs.dirty = 0
	slices.Sort(idxs)
	bs := c.cfg.BlockSize
	var out []Range
	start, length := idxs[0], int64(1)
	for _, i := range idxs[1:] {
		if i == start+length {
			length++
			continue
		}
		out = append(out, Range{File: file, Off: start * bs, Len: length * bs})
		start, length = i, 1
	}
	out = append(out, Range{File: file, Off: start * bs, Len: length * bs})
	return out
}

// InvalidateFile drops all of file's blocks (close-to-open NFS semantics,
// or the "read from a different node than wrote" trick in the paper's
// methodology).
func (c *Cache) InvalidateFile(file uint64) {
	fs := c.files[file]
	if fs == nil {
		return
	}
	for e := fs.head; e != nil; e = e.fnext {
		c.unlink(e)
		delete(c.blocks, e.key)
	}
	delete(c.files, file)
}

// evictOne removes the LRU block of a non-empty cache and returns its
// entry, dirty flag intact, for reuse.
func (c *Cache) evictOne() *entry {
	e := c.lruTail
	c.unlink(e)
	e.file.unlink(e)
	delete(c.blocks, e.key)
	c.stats.Evictions++
	if e.dirty {
		e.file.dirty--
		c.stats.DirtyEvictedBytes += c.cfg.BlockSize
	}
	return e
}

func (c *Cache) touch(e *entry) {
	if c.lruHead == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.lruHead == e {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lruTail == e {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (fs *fileState) link(e *entry) {
	e.fprev = nil
	e.fnext = fs.head
	if fs.head != nil {
		fs.head.fprev = e
	}
	fs.head = e
}

func (fs *fileState) unlink(e *entry) {
	if e.fprev != nil {
		e.fprev.fnext = e.fnext
	} else {
		fs.head = e.fnext
	}
	if e.fnext != nil {
		e.fnext.fprev = e.fprev
	}
	e.fprev, e.fnext = nil, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
