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

// entry is one resident block. Entries live in chunked storage and name
// each other by index; index 0 is never handed out, so 0 means "none" in
// every link and marks an empty table cell.
type entry struct {
	file  uint64
	block int64
	fs    *fileState
	hash  uint32 // hashKey(file, block)
	// LRU list, most recent first; next also links the free list.
	prev, next int32
	// the file's resident blocks, unordered
	fprev, fnext int32
	dirty        bool
}

// slot is one cell of the open-addressed block table.
type slot struct {
	hash uint32 // the entry's hashKey; hash&mask is its home cell
	e    int32  // entry index, 0 for an empty cell
}

// Entry storage grows a fixed-size chunk at a time, so filling a large
// cache never copies what it already holds.
const (
	chunkShift = 7
	chunkLen   = 1 << chunkShift // 6 KiB of entries
	chunkMask  = chunkLen - 1
	minTable   = 16
)

// fileState is the per-file index: the sequential-pattern detector plus
// the file's resident blocks, so flush and invalidate never scan the whole
// cache. It lives from a file's first access until InvalidateFile.
type fileState struct {
	nextSeq  int64 // next sequential block index
	seqScore int   // sequential streak length
	dirty    int64 // dirty resident blocks
	head     int32 // first of the file's resident blocks, 0 when none
}

// Cache is the LRU cache. Not safe for concurrent use; in the simulator all
// accesses are serialized by the event loop.
//
// Resident blocks are found through one open-addressed table keyed by
// (file, block): linear probing, load at most one half, and backward-shift
// deletion, so constant evict-and-insert leaves no tombstones. The table
// and the entry storage grow with the resident block count (at most 2³¹−1
// blocks), never with file extent.
type Cache struct {
	cfg    Config
	capBlk int64
	stats  Stats

	table []slot
	mask  uint32 // len(table)-1; len(table) is a power of two
	n     int    // resident blocks

	chunks  []*[chunkLen]entry
	used    int32 // entry indices handed out, the reserved 0 included
	free    int32 // entries released by InvalidateFile, linked by next
	lruHead int32 // most recently used
	lruTail int32 // least recently used

	files map[uint64]*fileState
	// lastFile/lastFS memoize the last file resolved, which saves the
	// files-map probe on runs of operations on one file.
	lastFile uint64
	lastFS   *fileState
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
		table:  make([]slot, minTable),
		mask:   minTable - 1,
		used:   1,
		files:  map[uint64]*fileState{},
	}
}

// fileState returns file's index, nil before the file's first access.
func (c *Cache) fileState(file uint64) *fileState {
	if c.lastFS != nil && c.lastFile == file {
		return c.lastFS
	}
	fs := c.files[file]
	if fs != nil {
		c.lastFile, c.lastFS = file, fs
	}
	return fs
}

// fileOf returns file's index, creating it on first access.
func (c *Cache) fileOf(file uint64) *fileState {
	if fs := c.fileState(file); fs != nil {
		return fs
	}
	fs := &fileState{}
	c.files[file] = fs
	c.lastFile, c.lastFS = file, fs
	return fs
}

// Config returns the cache parameters.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return c.n }

// Lookup checks [off, off+size) of file: hit bytes are counted and
// refreshed in LRU order; missing bytes are appended to dst as coalesced,
// block-aligned ranges, and the extended slice is returned. It also
// updates the sequential-pattern detector.
//
// The misses alias dst's array while it has room, and the cache keeps no
// reference to them: a caller passes a small array of its own (on its
// stack) and may block between misses while other processes use the
// cache.
func (c *Cache) Lookup(dst []Range, file uint64, off, size int64) (hitBytes int64, misses []Range) {
	misses = dst
	if size <= 0 {
		return 0, misses
	}
	bs := c.cfg.BlockSize
	first := off / bs
	last := (off + size - 1) / bs
	fs := c.fileOf(file)
	for b := first; b <= last; b++ {
		// bytes of the request inside this block
		n := min(off+size, (b+1)*bs) - max(off, b*bs)
		if i := c.find(hashKey(file, b), file, b); i != 0 {
			c.touch(i)
			hitBytes += n
			continue
		}
		c.stats.MissBytes += n
		if k := len(misses) - 1; k >= len(dst) && misses[k].Off+misses[k].Len == b*bs {
			misses[k].Len += bs
		} else {
			misses = append(misses, Range{File: file, Off: b * bs, Len: bs})
		}
	}
	c.stats.HitBytes += hitBytes
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
	fs := c.fileState(file)
	if c.cfg.ReadaheadBlocks == 0 || fs == nil || fs.seqScore < 2 {
		return Range{}
	}
	bs := c.cfg.BlockSize
	start := fs.nextSeq // next unread block
	var missLen int64
	for b := start; b < start+int64(c.cfg.ReadaheadBlocks); b++ {
		if c.find(hashKey(file, b), file, b) != 0 {
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
		h := hashKey(file, b)
		if i := c.find(h, file, b); i != 0 {
			if e := c.at(i); dirty && !e.dirty {
				e.dirty = true
				fs.dirty++
			}
			c.touch(i)
			continue
		}
		c.stats.Insertions++
		// A full cache evicts its LRU block first and reuses its entry.
		var i int32
		if int64(c.n) >= c.capBlk {
			i = c.evictOne()
			if e := c.at(i); e.dirty {
				evictedDirty = append(evictedDirty, Range{File: e.file, Off: e.block * bs, Len: bs})
			}
		} else {
			i = c.newEntry()
		}
		*c.at(i) = entry{file: file, block: b, fs: fs, hash: h, dirty: dirty}
		if dirty {
			fs.dirty++
		}
		c.place(h, i)
		c.pushFront(i)
		c.linkFile(fs, i)
	}
	return evictedDirty
}

// DirtyBytes returns the number of dirty resident bytes for file (all files
// when file is 0 and zero is not a real file id in the caller's scheme).
func (c *Cache) DirtyBytes(file uint64) int64 {
	var n int64
	if file != 0 {
		if fs := c.fileState(file); fs != nil {
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
	fs := c.fileState(file)
	if fs == nil || fs.dirty == 0 {
		return nil
	}
	idxs := make([]int64, 0, fs.dirty)
	for i := fs.head; i != 0; {
		e := c.at(i)
		if e.dirty {
			e.dirty = false
			idxs = append(idxs, e.block)
		}
		i = e.fnext
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
	fs := c.fileState(file)
	if fs == nil {
		return
	}
	for i := fs.head; i != 0; {
		e := c.at(i)
		next := e.fnext
		c.unlink(i)
		c.unplace(e.hash, i)
		e.next = c.free
		c.free = i
		i = next
	}
	delete(c.files, file)
	c.lastFS = nil
}

// evictOne removes the LRU block of a non-empty cache and returns its
// entry, dirty flag intact, for reuse.
func (c *Cache) evictOne() int32 {
	i := c.lruTail
	e := c.at(i)
	c.unlink(i)
	c.unlinkFile(e.fs, i)
	c.unplace(e.hash, i)
	c.stats.Evictions++
	if e.dirty {
		e.fs.dirty--
		c.stats.DirtyEvictedBytes += c.cfg.BlockSize
	}
	return i
}

// hashKey mixes a block key into its table hash (the SplitMix64 finalizer
// over both words), so strided and many-file key sets spread over the
// table instead of piling into long probe runs.
func hashKey(file uint64, block int64) uint32 {
	z := file*0x9e3779b97f4a7c15 ^ uint64(block)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return uint32(z ^ z>>31)
}

// find returns the index of the entry holding (file, block), whose hash is
// h, or 0 when the block is not resident.
func (c *Cache) find(h uint32, file uint64, block int64) int32 {
	for j := h & c.mask; ; j = (j + 1) & c.mask {
		s := c.table[j]
		if s.e == 0 {
			return 0
		}
		if s.hash == h {
			if e := c.at(s.e); e.file == file && e.block == block {
				return s.e
			}
		}
	}
}

// place files entry i, whose hash is h, in the first empty cell of its
// probe run, doubling the table first if the entry would load it past one
// half.
func (c *Cache) place(h uint32, i int32) {
	if 2*(c.n+1) > len(c.table) {
		old := c.table
		c.table = make([]slot, 2*len(old))
		c.mask = uint32(len(c.table) - 1)
		for _, s := range old {
			if s.e != 0 {
				c.put(s)
			}
		}
	}
	c.put(slot{hash: h, e: i})
	c.n++
}

func (c *Cache) put(s slot) {
	j := s.hash & c.mask
	for c.table[j].e != 0 {
		j = (j + 1) & c.mask
	}
	c.table[j] = s
}

// unplace removes entry i, whose hash is h, from the table by backward
// shift: each later cell of the probe run whose home does not lie between
// the hole and itself moves up into the hole, so no lookup ever needs a
// tombstone to keep probing.
func (c *Cache) unplace(h uint32, i int32) {
	m := c.mask
	hole := h & m
	for c.table[hole].e != i {
		hole = (hole + 1) & m
	}
	for j := (hole + 1) & m; c.table[j].e != 0; j = (j + 1) & m {
		if (j-c.table[j].hash)&m >= (j-hole)&m {
			c.table[hole] = c.table[j]
			hole = j
		}
	}
	c.table[hole] = slot{}
	c.n--
}

// at returns entry i's storage.
func (c *Cache) at(i int32) *entry { return &c.chunks[i>>chunkShift][i&chunkMask] }

// newEntry returns an unused entry index: a released one if any, else the
// next fresh index, adding a chunk when the storage is full.
func (c *Cache) newEntry() int32 {
	if i := c.free; i != 0 {
		c.free = c.at(i).next
		return i
	}
	i := c.used
	if int(i>>chunkShift) == len(c.chunks) {
		c.chunks = append(c.chunks, new([chunkLen]entry))
	}
	c.used++
	return i
}

func (c *Cache) touch(i int32) {
	if c.lruHead == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *Cache) pushFront(i int32) {
	e := c.at(i)
	e.prev = 0
	e.next = c.lruHead
	if c.lruHead != 0 {
		c.at(c.lruHead).prev = i
	} else {
		c.lruTail = i
	}
	c.lruHead = i
}

func (c *Cache) unlink(i int32) {
	e := c.at(i)
	if e.prev != 0 {
		c.at(e.prev).next = e.next
	} else {
		c.lruHead = e.next
	}
	if e.next != 0 {
		c.at(e.next).prev = e.prev
	} else {
		c.lruTail = e.prev
	}
	e.prev, e.next = 0, 0
}

func (c *Cache) linkFile(fs *fileState, i int32) {
	e := c.at(i)
	e.fprev = 0
	e.fnext = fs.head
	if fs.head != 0 {
		c.at(fs.head).fprev = i
	}
	fs.head = i
}

func (c *Cache) unlinkFile(fs *fileState, i int32) {
	e := c.at(i)
	if e.fprev != 0 {
		c.at(e.fprev).fnext = e.fnext
	} else {
		fs.head = e.fnext
	}
	if e.fnext != 0 {
		c.at(e.fnext).fprev = e.fprev
	}
	e.fprev, e.fnext = 0, 0
}
