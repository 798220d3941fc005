package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// CPU attribution: a runtime/pprof CPU profile is decoded (gzip'd protobuf,
// decoded by hand because the module takes no dependencies) and every sample
// is charged to one layer. The innermost frame that belongs to this
// repository decides the layer, so standard-library and runtime callees
// count toward the layer that called them; a stack with no repository frame
// at all is charged to the Go runtime. Independently, the run of runtime
// frames at the top of the stack classifies the sample into a leaf class
// (scheduler hand-off, map access, allocation) that cuts across layers.

// cpuLayers lists every layer the fold can return, in report order.
var cpuLayers = []string{
	"sim.kernel", "sim.fabric", "sim.group",
	"traffic", "resilience", "trace", "fidelity",
	"fsapi", "cache", "fsbase", "vast", "gpfs", "lustre", "nvmelocal", "unifyfs",
	"netsim", "device", "dlio", "ior", "stats",
	"surrogate", "configsearch", "repair", "faults", "experiments",
	"bench", "other", "go.runtime",
}

// leafClasses lists the cross-cutting leaf classes in report order.
var leafClasses = []string{"sched", "maps", "malloc"}

// frame is one function activation of a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file path
}

const repoInternal = "storagesim/internal/"

// simFileLayer splits internal/sim by source file: the event kernel, the
// flow-level fabric solver, and the domain-parallel group.
func simFileLayer(file string) string {
	base := path.Base(file)
	switch {
	case strings.HasPrefix(base, "domain"):
		return "sim.group"
	case base == "pipe.go" || base == "solver.go" || base == "accounting.go":
		return "sim.fabric"
	}
	return "sim.kernel"
}

// frameLayer returns the layer a frame belongs to, "" for frames outside
// the repository (standard library, runtime).
func frameLayer(f frame) string {
	if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "storagesim/bench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(f.fn, repoInternal)
	if !ok {
		if strings.HasPrefix(f.fn, "storagesim.") || strings.HasPrefix(f.fn, "storagesim/") {
			return "other"
		}
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	top, _, _ := strings.Cut(pkg, "/")
	if top == "sim" {
		return simFileLayer(f.file)
	}
	for _, l := range cpuLayers {
		if l == top {
			return top
		}
	}
	return "other"
}

// isRuntimeFrame reports whether fn is part of the Go runtime proper.
func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") ||
		strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// leafPrefixes maps each leaf class to the runtime entry points that
// identify it.
var leafPrefixes = map[string][]string{
	"sched": {
		"runtime.chansend", "runtime.chanrecv", "runtime.closechan",
		"runtime.selectgo", "runtime.selectnb", "runtime.block",
		"runtime.gopark", "runtime.goready", "runtime.Gosched", "runtime.gosched",
		"runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
		"runtime.newproc", "runtime.goexit0", "runtime.goexit1", "runtime.ready",
		"runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.semacquire", "runtime.semrelease",
	},
	"maps": {"runtime.map", "internal/runtime/maps."},
	"malloc": {
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.makemap", "runtime.makechan",
		"runtime.growslice", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.rawruneslice", "runtime.concatstring", "runtime.slicebytetostring",
		"runtime.stringtoslice", "runtime.convT", "runtime.intstring",
	},
}

// leafClass classifies a stack (leaf first) by the runtime service its
// code called: the run of runtime frames at the top of the stack is scanned
// from its outermost frame inward, and the first frame naming a class
// decides. "" means no class.
func leafClass(stack []frame) string {
	n := 0
	for n < len(stack) && isRuntimeFrame(stack[n].fn) {
		n++
	}
	for i := n - 1; i >= 0; i-- {
		for _, class := range leafClasses {
			for _, p := range leafPrefixes[class] {
				if strings.HasPrefix(stack[i].fn, p) {
					return class
				}
			}
		}
	}
	return ""
}

// foldStack returns the layer a sampled stack (leaf first) is charged to.
func foldStack(stack []frame) string {
	for _, f := range stack {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "go.runtime"
}

// cpuFold is a profile folded onto layers and leaf classes, in samples.
type cpuFold struct {
	total  int64
	cpuNs  int64
	layers map[string]int64
	leaves map[string]int64
}

func newCPUFold() *cpuFold {
	return &cpuFold{layers: map[string]int64{}, leaves: map[string]int64{}}
}

// add charges n samples (ns of CPU) of one stack.
func (c *cpuFold) add(stack []frame, n, ns int64) {
	c.total += n
	c.cpuNs += ns
	c.layers[foldStack(stack)] += n
	if cl := leafClass(stack); cl != "" {
		c.leaves[cl] += n
	}
}

// merge adds another fold's samples.
func (c *cpuFold) merge(o *cpuFold) {
	c.total += o.total
	c.cpuNs += o.cpuNs
	for k, v := range o.layers {
		c.layers[k] += v
	}
	for k, v := range o.leaves {
		c.leaves[k] += v
	}
}

// share returns part as a percentage of the sample total.
func (c *cpuFold) share(part int64) float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(c.total)
}

// foldProfile decodes a gzip'd pprof CPU profile and folds its samples.
func foldProfile(gz []byte) (*cpuFold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	fold := newCPUFold()
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				fn := p.functions[fid]
				stack = append(stack, frame{fn: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		var n, ns int64
		if len(s.values) > 0 {
			n = s.values[0]
		}
		if len(s.values) > 1 {
			ns = s.values[1]
		}
		fold.add(stack, n, ns)
	}
	return fold, nil
}

// profile is the subset of profile.proto the fold needs.
type profile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]pbFunction
	strings   []string
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbFunction struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// pbReader walks the fields of one protobuf message.
type pbReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated protobuf")

func (r *pbReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errTruncated
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.err = errors.New("protobuf varint overflow")
	return 0
}

// next returns the next field's number and wire type; ok is false at the
// end of the message or on error.
func (r *pbReader) next() (num int, typ int, ok bool) {
	if r.err != nil || len(r.b) == 0 {
		return 0, 0, false
	}
	k := r.varint()
	return int(k >> 3), int(k & 7), r.err == nil
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = errTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *pbReader) skip(typ int) {
	switch typ {
	case wireVarint:
		r.varint()
	case wireI64:
		r.fixed(8)
	case wireBytes:
		r.bytes()
	case wireI32:
		r.fixed(4)
	default:
		r.err = fmt.Errorf("protobuf wire type %d", typ)
	}
}

func (r *pbReader) fixed(n int) {
	if len(r.b) < n {
		r.err = errTruncated
		return
	}
	r.b = r.b[n:]
}

// uints appends a repeated integer field, packed or not.
func (r *pbReader) uints(typ int, dst []uint64) []uint64 {
	if typ == wireVarint {
		return append(dst, r.varint())
	}
	if typ != wireBytes {
		r.skip(typ)
		return dst
	}
	packed := pbReader{b: r.bytes()}
	for len(packed.b) > 0 && packed.err == nil {
		dst = append(dst, packed.varint())
	}
	if packed.err != nil {
		r.err = packed.err
	}
	return dst
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]pbFunction{}}
	r := pbReader{b: b}
	for {
		num, typ, ok := r.next()
		if !ok {
			break
		}
		switch {
		case num == 2 && typ == wireBytes:
			s, err := decodeSample(r.bytes())
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case num == 4 && typ == wireBytes:
			id, fns, err := decodeLocation(r.bytes())
			if err != nil {
				return nil, err
			}
			p.locations[id] = fns
		case num == 5 && typ == wireBytes:
			id, fn, err := decodeFunction(r.bytes())
			if err != nil {
				return nil, err
			}
			p.functions[id] = fn
		case num == 6 && typ == wireBytes:
			p.strings = append(p.strings, string(r.bytes()))
		default:
			r.skip(typ)
		}
	}
	return p, r.err
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	var vals []uint64
	r := pbReader{b: b}
	for {
		num, typ, ok := r.next()
		if !ok {
			break
		}
		switch num {
		case 1:
			s.locs = r.uints(typ, s.locs)
		case 2:
			vals = r.uints(typ, vals)
		default:
			r.skip(typ)
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, r.err
}

func decodeLocation(b []byte) (id uint64, fns []uint64, err error) {
	r := pbReader{b: b}
	for {
		num, typ, ok := r.next()
		if !ok {
			break
		}
		switch {
		case num == 1 && typ == wireVarint:
			id = r.varint()
		case num == 4 && typ == wireBytes:
			line := pbReader{b: r.bytes()}
			for {
				ln, lt, lok := line.next()
				if !lok {
					break
				}
				if ln == 1 && lt == wireVarint {
					fns = append(fns, line.varint())
				} else {
					line.skip(lt)
				}
			}
			if line.err != nil {
				return 0, nil, line.err
			}
		default:
			r.skip(typ)
		}
	}
	return id, fns, r.err
}

func decodeFunction(b []byte) (id uint64, fn pbFunction, err error) {
	r := pbReader{b: b}
	for {
		num, typ, ok := r.next()
		if !ok {
			break
		}
		switch {
		case num == 1 && typ == wireVarint:
			id = r.varint()
		case num == 2 && typ == wireVarint:
			fn.name = int64(r.varint())
		case num == 4 && typ == wireVarint:
			fn.file = int64(r.varint())
		default:
			r.skip(typ)
		}
	}
	return id, fn, r.err
}
