package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed adjustment. On a shared virtual machine the same process can
// run twice as fast a few minutes later, so raw times of runs made minutes
// apart differ by more than any change worth detecting. Every timed
// operation is therefore bracketed by a fixed reference kernel, and the
// reported times are host-adjusted: measured × refNominal ÷ the reference
// time measured around them. The kernel uses only the standard library, so
// no change to the simulator moves it; on a host where it takes refNominal,
// adjusted times are wall seconds.

// refNominal is the reference time on the quiet host the baseline was
// recorded on (bench/results/baseline.json), rounded.
const refNominal = 2e-3

const (
	refHashBytes   = 64 << 10
	refStreamBytes = 8 << 20 // four times the L2 cache: streams from the shared L3 and memory
)

// refState is the kernel's data, built on first use so that set-up-only
// processes do not pay for it.
type refState struct {
	buf    []byte   // hashed: compute-bound, in the core's own caches
	stream []uint64 // summed: memory-bound
}

// refData maps the kernel's data outside the Go heap, so that it does not
// raise the heap goal and change when the simulator's garbage is collected.
// The mapping lives as long as the process.
var refData = sync.OnceValues(func() (*refState, error) {
	mem, err := syscall.Mmap(-1, 0, refHashBytes+refStreamBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel memory: %w", err)
	}
	r := &refState{
		buf:    mem[:refHashBytes],
		stream: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[refHashBytes])), refStreamBytes/8),
	}
	for i := range r.stream {
		r.stream[i] = uint64(i)
	}
	return r, nil
})

// refSink keeps the kernels' results live.
var refSink uint64

func (r *refState) hash() {
	var sum [32]byte
	for i := 0; i < 80; i++ {
		r.buf[0] = byte(i)
		sum = sha256.Sum256(r.buf)
	}
	refSink += uint64(sum[0])
}

func (r *refState) sum() {
	var s uint64
	for _, v := range r.stream {
		s += v
	}
	refSink += s
}

// hostRef times the reference kernel: the geometric mean of the hashing and
// the streaming part, each the median of three runs. It collects garbage
// first, so no collection runs during it, and allocates nothing while timed.
// Of the kernels tried (hashing, a pointer chase through 2 MiB, map lookups,
// streaming, allocation, page faults, each on one or two goroutines), this
// pair followed the drift of all three traffic workloads best.
func hostRef() (float64, error) {
	r, err := refData()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	prod := 1.0
	for _, part := range []func(){r.hash, r.sum} {
		var ts [3]float64
		for i := range ts {
			start := time.Now()
			part()
			ts[i] = time.Since(start).Seconds()
		}
		sort.Float64s(ts[:])
		prod *= ts[len(ts)/2]
	}
	return math.Sqrt(prod), nil
}

// hostAdjust converts a time measured where the reference kernel took ref
// seconds into host-adjusted seconds.
func hostAdjust(t, ref float64) float64 {
	return t * refNominal / ref
}
