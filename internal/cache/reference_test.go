package cache

import (
	"slices"
	"testing"

	"storagesim/internal/stats"
)

// blockKey names one block in the reference model.
type blockKey struct {
	file  uint64
	index int64
}

// refCache is a deliberately naive reference implementation of the cache:
// residency via a slice ordered most-recent-first, dirty flags and the
// sequential detector in plain maps, and every per-file question answered
// by scanning everything. The differential below drives both
// implementations with the same op stream and demands identical answers
// from every operation.
type refCache struct {
	cap       int
	bs        int64
	readahead int
	order     []blockKey // MRU first
	dirty     map[blockKey]bool
	nextSeq   map[uint64]int64
	seqScore  map[uint64]int
}

func newRef(capBlocks int, bs int64, readahead int) *refCache {
	return &refCache{
		cap: capBlocks, bs: bs, readahead: readahead,
		dirty: map[blockKey]bool{}, nextSeq: map[uint64]int64{}, seqScore: map[uint64]int{},
	}
}

func (r *refCache) find(k blockKey) int {
	for i, e := range r.order {
		if e == k {
			return i
		}
	}
	return -1
}

func (r *refCache) resident(k blockKey) bool { return r.find(k) >= 0 }

func (r *refCache) touch(k blockKey) bool {
	if i := r.find(k); i >= 0 {
		r.order = append([]blockKey{k}, append(r.order[:i:i], r.order[i+1:]...)...)
		return true
	}
	return false
}

func (r *refCache) lookup(file uint64, off, size int64) (hit int64, misses []Range) {
	if size <= 0 {
		return 0, nil
	}
	first, last := off/r.bs, (off+size-1)/r.bs
	for b := first; b <= last; b++ {
		n := min(off+size, (b+1)*r.bs) - max(off, b*r.bs)
		if r.touch(blockKey{file, b}) {
			hit += n
			continue
		}
		if k := len(misses) - 1; k >= 0 && misses[k].Off+misses[k].Len == b*r.bs {
			misses[k].Len += r.bs
		} else {
			misses = append(misses, Range{File: file, Off: b * r.bs, Len: r.bs})
		}
	}
	switch {
	case first == r.nextSeq[file] || r.seqScore[file] == 0 && first == 0:
		r.seqScore[file]++
	default:
		r.seqScore[file] = 0
	}
	r.nextSeq[file] = last + 1
	return hit, misses
}

func (r *refCache) readaheadRange(file uint64) Range {
	if r.readahead == 0 || r.seqScore[file] < 2 {
		return Range{}
	}
	start := r.nextSeq[file]
	out := Range{File: file, Off: start * r.bs}
	for i := int64(0); i < int64(r.readahead) && !r.resident(blockKey{file, start + i}); i++ {
		out.Len += r.bs
	}
	return out
}

func (r *refCache) insert(file uint64, off, size int64, dirty bool) (evicted []Range) {
	if size <= 0 {
		return nil
	}
	for b := off / r.bs; b <= (off+size-1)/r.bs; b++ {
		k := blockKey{file, b}
		if dirty {
			r.dirty[k] = true
		}
		if r.touch(k) {
			continue
		}
		r.order = append([]blockKey{k}, r.order...)
		if len(r.order) > r.cap {
			victim := r.order[len(r.order)-1]
			r.order = r.order[:len(r.order)-1]
			if r.dirty[victim] {
				evicted = append(evicted, Range{File: victim.file, Off: victim.index * r.bs, Len: r.bs})
			}
			delete(r.dirty, victim)
		}
	}
	return evicted
}

func (r *refCache) flush(file uint64) []Range {
	var idxs []int64
	for k := range r.dirty {
		if k.file == file {
			idxs = append(idxs, k.index)
			delete(r.dirty, k)
		}
	}
	slices.Sort(idxs)
	var out []Range
	for _, i := range idxs {
		if k := len(out) - 1; k >= 0 && out[k].Off+out[k].Len == i*r.bs {
			out[k].Len += r.bs
		} else {
			out = append(out, Range{File: file, Off: i * r.bs, Len: r.bs})
		}
	}
	return out
}

func (r *refCache) invalidate(file uint64) {
	kept := r.order[:0]
	for _, k := range r.order {
		if k.file != file {
			kept = append(kept, k)
		}
	}
	r.order = kept
	for k := range r.dirty {
		if k.file == file {
			delete(r.dirty, k)
		}
	}
	delete(r.nextSeq, file)
	delete(r.seqScore, file)
}

func (r *refCache) dirtyBytes(file uint64) int64 {
	var n int64
	for k := range r.dirty {
		if file == 0 || k.file == file {
			n += r.bs
		}
	}
	return n
}

// geometry is one differential row: the cache size and the key space the
// op stream draws from. An op picks one of files and one of that file's
// refBlocks blocks; a multi-block request also reaches the block after.
type geometry struct {
	name      string
	capBlocks int
	files     []uint64
	blocks    [][]int64 // blocks[i][k] is the k-th block of files[i]
}

const (
	refBlockSize = 4096
	refReadahead = 4
	refBlocks    = 40
	opBytes      = 4
)

// span returns each file's blocks as block(file index, k).
func span(files int, block func(f int, k int64) int64) [][]int64 {
	out := make([][]int64, files)
	for f := range out {
		for k := int64(0); k < refBlocks; k++ {
			out[f] = append(out[f], block(f, k))
		}
	}
	return out
}

// fileIDs returns n file ids counting up from first.
func fileIDs(first uint64, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = first + uint64(i)
	}
	return ids
}

// oneHome returns, for each file, the first refBlocks blocks whose keys
// hash to cell 60 of a 64-cell table, and so to cell 12 and 28 of the
// 16- and 32-cell tables a 16-block cache uses: every resident key shares
// one probe run, which wraps past the table's end.
func oneHome(files []uint64) [][]int64 {
	out := make([][]int64, len(files))
	for f, id := range files {
		for b := int64(0); len(out[f]) < refBlocks; b++ {
			if hashKey(id, b)&63 == 60 {
				out[f] = append(out[f], b)
			}
		}
	}
	return out
}

// rows are the differential geometries. The first, a 16-block cache shared
// by three files of 40 blocks each, makes eviction, cross-file
// interleaving and readahead all happen within a few dozen ops; the others
// stress the block table.
var rows = []geometry{
	{name: "small", capBlocks: 16, files: fileIDs(1, 3),
		blocks: span(3, func(_ int, k int64) int64 { return k })},
	{name: "wide-keys", capBlocks: 16, files: []uint64{1 << 32, 1<<32 + 1, 1<<64 - 1},
		blocks: span(3, func(_ int, k int64) int64 { return 1<<40 - refBlocks/2 + k })},
	// Under an identity hash every one of these keys would share a cell.
	{name: "strided", capBlocks: 16, files: fileIDs(1, 3),
		blocks: span(3, func(_ int, k int64) int64 { return k << 16 })},
	// InvalidateFile cuts a file out of the middle of the one probe run.
	{name: "one-home", capBlocks: 16, files: fileIDs(1, 3), blocks: oneHome(fileIDs(1, 3))},
	// Many files churn a larger cache: the table doubles up to 512 cells
	// and every eviction is a backward-shift delete.
	{name: "many-files", capBlocks: 256, files: fileIDs(1, 64),
		blocks: span(64, func(_ int, k int64) int64 { return k })},
}

// runDifferential decodes ops (opBytes bytes per op) into cache operations
// on g's key space, applies each to the cache and the reference, and fails
// on the first answer that differs or the first broken table invariant.
func runDifferential(t *testing.T, g geometry, ops []byte) {
	t.Helper()
	const bs = refBlockSize
	c := New(Config{BlockSize: bs, Capacity: int64(g.capBlocks) * bs, ReadaheadBlocks: refReadahead})
	ref := newRef(g.capBlocks, bs, refReadahead)
	for i := 0; i+opBytes <= len(ops); i += opBytes {
		op := ops[i : i+opBytes]
		fi := int(op[1]) % len(g.files)
		file := g.files[fi]
		// Offsets fall on quarter blocks and sizes span one to three
		// blocks, so sub-block, unaligned and multi-block requests mix.
		off := g.blocks[fi][op[2]%refBlocks]*bs + int64(op[3]%4)*(bs/4)
		size := int64(op[3]/4%5) * (bs / 2)
		n := i / opBytes
		switch op[0] % 8 {
		case 0, 1:
			hit, misses := c.Lookup(nil, file, off, size)
			wantHit, wantMisses := ref.lookup(file, off, size)
			if hit != wantHit || !slices.Equal(misses, wantMisses) {
				t.Fatalf("op %d: Lookup(%d, %d, %d) = %d %v, reference %d %v", n, file, off, size, hit, misses, wantHit, wantMisses)
			}
		case 2, 3:
			dirty := op[0]%8 == 3
			evicted := c.Insert(file, off, size, dirty)
			if want := ref.insert(file, off, size, dirty); !slices.Equal(evicted, want) {
				t.Fatalf("op %d: Insert(%d, %d, %d, %v) evicted dirty %v, reference %v", n, file, off, size, dirty, evicted, want)
			}
		case 4:
			if got, want := c.FlushFileRanges(file), ref.flush(file); !slices.Equal(got, want) {
				t.Fatalf("op %d: FlushFileRanges(%d) = %v, reference %v", n, file, got, want)
			}
		case 5:
			c.InvalidateFile(file)
			ref.invalidate(file)
			for _, b := range g.blocks[fi] {
				if c.find(hashKey(file, b), file, b) != 0 {
					t.Fatalf("op %d: block %d of invalidated file %d still resident", n, b, file)
				}
			}
		case 6:
			if got, want := c.DirtyBytes(file), ref.dirtyBytes(file); got != want {
				t.Fatalf("op %d: DirtyBytes(%d) = %d, reference %d", n, file, got, want)
			}
		case 7:
			if got, want := c.ReadaheadRange(file, off, size), ref.readaheadRange(file); got != want {
				t.Fatalf("op %d: ReadaheadRange(%d) = %v, reference %v", n, file, got, want)
			}
		}
		if c.Len() != len(ref.order) {
			t.Fatalf("op %d: Len %d, reference %d", n, c.Len(), len(ref.order))
		}
		if got, want := c.DirtyBytes(0), ref.dirtyBytes(0); got != want {
			t.Fatalf("op %d: DirtyBytes(0) = %d, reference %d", n, got, want)
		}
		checkTable(t, c, n)
	}
	// Final state: identical residency, in LRU order, and identical dirty
	// ranges per file.
	i := 0
	for e := c.lruHead; e != 0; e = c.at(e).next {
		if k := (blockKey{c.at(e).file, c.at(e).block}); i >= len(ref.order) || k != ref.order[i] {
			t.Fatalf("LRU position %d holds %v, reference order %v", i, k, ref.order)
		}
		i++
	}
	for _, file := range g.files {
		if got, want := c.FlushFileRanges(file), ref.flush(file); !slices.Equal(got, want) {
			t.Fatalf("final FlushFileRanges(%d) = %v, reference %v", file, got, want)
		}
	}
}

// checkTable fails unless the block table holds exactly the resident
// entries, each under its own hash and reachable from its home cell
// without crossing an empty cell, and the load is at most one half.
func checkTable(t *testing.T, c *Cache, op int) {
	t.Helper()
	if 2*c.n > len(c.table) {
		t.Fatalf("op %d: %d entries load a %d-cell table past one half", op, c.n, len(c.table))
	}
	cells := 0
	for j, s := range c.table {
		if s.e == 0 {
			continue
		}
		cells++
		e := c.at(s.e)
		if s.hash != e.hash || e.hash != hashKey(e.file, e.block) {
			t.Fatalf("op %d: cell %d holds hash %#x for block %d:%d (hash %#x)", op, j, s.hash, e.file, e.block, hashKey(e.file, e.block))
		}
		for k := s.hash & c.mask; k != uint32(j); k = (k + 1) & c.mask {
			if c.table[k].e == 0 {
				t.Fatalf("op %d: empty cell %d cuts block %d:%d off its home %d", op, k, e.file, e.block, s.hash&c.mask)
			}
		}
	}
	lru := 0
	for i := c.lruHead; i != 0; i = c.at(i).next {
		lru++
	}
	if cells != c.n || lru != c.n {
		t.Fatalf("op %d: %d table cells and %d LRU entries for %d resident blocks", op, cells, lru, c.n)
	}
}

// randomOps returns n seeded ops for runDifferential.
func randomOps(seed uint64, n int) []byte {
	rng := stats.NewRNG(seed)
	ops := make([]byte, n*opBytes)
	for i := range ops {
		ops[i] = byte(rng.Intn(256))
	}
	return ops
}

func TestCacheAgainstReferenceModel(t *testing.T) {
	for _, g := range rows {
		t.Run(g.name, func(t *testing.T) {
			runDifferential(t, g, randomOps(0xFACE, 20000))
		})
	}
}

// FuzzCacheVsReference feeds coverage-guided op streams through the same
// differential as TestCacheAgainstReferenceModel, on the geometry row the
// first argument picks. Run via `make fuzz-smoke`.
func FuzzCacheVsReference(f *testing.F) {
	f.Add(uint8(0), randomOps(0xFACE, 64))
	f.Add(uint8(0), randomOps(7, 256))
	for r := 1; r < len(rows); r++ {
		f.Add(uint8(r), randomOps(uint64(r), 256))
	}
	f.Fuzz(func(t *testing.T, row uint8, ops []byte) {
		runDifferential(t, rows[int(row)%len(rows)], ops)
	})
}
