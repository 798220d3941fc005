package cache

import (
	"slices"
	"testing"

	"storagesim/internal/stats"
)

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

// Differential geometry: a 16-block cache shared by three files of 40
// blocks each, so eviction, cross-file interleaving and readahead all
// happen within a few dozen ops.
const (
	refCapBlocks = 16
	refBlockSize = 4096
	refReadahead = 4
	refFiles     = 3
	opBytes      = 4
)

// runDifferential decodes ops (opBytes bytes per op) into cache operations
// on several files, applies each to the cache and the reference, and fails
// on the first answer that differs.
func runDifferential(t *testing.T, ops []byte) {
	t.Helper()
	const bs = refBlockSize
	c := New(Config{BlockSize: bs, Capacity: refCapBlocks * bs, ReadaheadBlocks: refReadahead})
	ref := newRef(refCapBlocks, bs, refReadahead)
	for i := 0; i+opBytes <= len(ops); i += opBytes {
		op := ops[i : i+opBytes]
		file := uint64(op[1]%refFiles) + 1
		// Offsets fall on quarter blocks and sizes span one to three
		// blocks, so sub-block, unaligned and multi-block requests mix.
		off := int64(op[2]%40)*bs + int64(op[3]%4)*(bs/4)
		size := int64(op[3]/4%5) * (bs / 2)
		n := i / opBytes
		switch op[0] % 8 {
		case 0, 1:
			hit, misses := c.Lookup(file, off, size)
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
			for b := int64(0); b < 40; b++ {
				if _, ok := c.blocks[blockKey{file, b}]; ok {
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
	}
	// Final state: identical residency, in LRU order, and identical dirty
	// ranges per file.
	i := 0
	for e := c.lruHead; e != nil; e = e.next {
		if i >= len(ref.order) || e.key != ref.order[i] {
			t.Fatalf("LRU position %d holds %v, reference order %v", i, e.key, ref.order)
		}
		i++
	}
	for file := uint64(1); file <= refFiles; file++ {
		if got, want := c.FlushFileRanges(file), ref.flush(file); !slices.Equal(got, want) {
			t.Fatalf("final FlushFileRanges(%d) = %v, reference %v", file, got, want)
		}
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
	runDifferential(t, randomOps(0xFACE, 20000))
}

// FuzzCacheVsReference feeds coverage-guided op streams through the same
// differential as TestCacheAgainstReferenceModel. Run via `make fuzz-smoke`.
func FuzzCacheVsReference(f *testing.F) {
	f.Add(randomOps(0xFACE, 64))
	f.Add(randomOps(7, 256))
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDifferential(t, ops)
	})
}
