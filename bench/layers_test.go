package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func stack(frames ...string) []frame {
	// Each argument is "function@file".
	out := make([]frame, len(frames))
	for i, f := range frames {
		fn, file, _ := strings.Cut(f, "@")
		out[i] = frame{fn: fn, file: file}
	}
	return out
}

func TestFoldStack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []frame
		layer string
		leaf  string
	}{
		{
			name: "innermost repo frame wins",
			stack: stack(
				"storagesim/internal/cache.(*Cache).FlushFileRanges@/r/internal/cache/cache.go",
				"storagesim/internal/vast.(*client).Fsync@/r/internal/vast/vast.go",
				"storagesim/internal/dlio.Run@/r/internal/dlio/dlio.go",
			),
			layer: "cache",
		},
		{
			name:  "sim splits by file: kernel",
			stack: stack("storagesim/internal/sim.(*Env).dispatch@/r/internal/sim/env.go"),
			layer: "sim.kernel",
		},
		{
			name:  "sim splits by file: fabric",
			stack: stack("storagesim/internal/sim.(*Fabric).solve@/r/internal/sim/solver.go"),
			layer: "sim.fabric",
		},
		{
			name:  "sim splits by file: group",
			stack: stack("storagesim/internal/sim.(*Group).advance@/r/internal/sim/domain_par.go"),
			layer: "sim.group",
		},
		{
			name: "stdlib callee charged to its caller",
			stack: stack(
				"encoding/json.(*decodeState).object@/go/src/encoding/json/decode.go",
				"encoding/json.Unmarshal@/go/src/encoding/json/decode.go",
				"storagesim/internal/trace.ParseJSONL@/r/internal/trace/ingest.go",
			),
			layer: "trace",
		},
		{
			name: "runtime callee charged to its caller, classed as malloc",
			stack: stack(
				"runtime.mallocgc@/go/src/runtime/malloc.go",
				"runtime.growslice@/go/src/runtime/slice.go",
				"storagesim/internal/traffic.(*reqShard).handleArrival@/r/internal/traffic/traffic.go",
			),
			layer: "traffic",
			leaf:  "malloc",
		},
		{
			name: "map access class decided by the outermost runtime frame",
			stack: stack(
				"runtime.mallocgc@/go/src/runtime/malloc.go",
				"runtime.newobject@/go/src/runtime/malloc.go",
				"runtime.mapassign_faststr@/go/src/runtime/map.go",
				"storagesim/internal/fidelity.Recorded@/r/internal/fidelity/fidelity.go",
			),
			layer: "fidelity",
			leaf:  "maps",
		},
		{
			name: "channel hand-off classed as sched",
			stack: stack(
				"runtime.futex@/go/src/runtime/sys_linux_amd64.s",
				"runtime.goready@/go/src/runtime/proc.go",
				"runtime.chansend1@/go/src/runtime/chan.go",
				"storagesim/internal/sim.(*Env).dispatch@/r/internal/sim/env.go",
			),
			layer: "sim.kernel",
			leaf:  "sched",
		},
		{
			name: "no repo frame goes to the runtime",
			stack: stack(
				"runtime.findRunnable@/go/src/runtime/proc.go",
				"runtime.schedule@/go/src/runtime/proc.go",
				"runtime.mstart@/go/src/runtime/proc.go",
			),
			layer: "go.runtime",
			leaf:  "sched",
		},
		{
			name:  "GC worker has no leaf class",
			stack: stack("runtime.scanobject@/go/src/runtime/mgcmark.go", "runtime.gcBgMarkWorker@/go/src/runtime/mgc.go"),
			layer: "go.runtime",
		},
		{
			name:  "benchmark's own code",
			stack: stack("main.oneRep@/r/bench/measure.go"),
			layer: "bench",
		},
		{
			name:  "subpackage charged to its top package",
			stack: stack("storagesim/internal/faults/invariants.(*Checker).Check@/r/internal/faults/invariants/inv.go"),
			layer: "faults",
		},
		{
			name:  "package outside the layer list",
			stack: stack("storagesim/internal/units.ParseBytes@/r/internal/units/units.go"),
			layer: "other",
		},
	} {
		if got := foldStack(tc.stack); got != tc.layer {
			t.Errorf("%s: layer %q, want %q", tc.name, got, tc.layer)
		}
		if got := leafClass(tc.stack); got != tc.leaf {
			t.Errorf("%s: leaf class %q, want %q", tc.name, got, tc.leaf)
		}
	}
}

func TestFoldSumsToTotal(t *testing.T) {
	f := newCPUFold()
	f.add(stack("storagesim/internal/cache.F@/r/internal/cache/c.go"), 3, 30)
	f.add(stack("runtime.schedule@/go/src/runtime/proc.go"), 2, 20)
	f.add(stack("storagesim/internal/sim.F@/r/internal/sim/pipe.go"), 5, 50)
	var sum int64
	var pct float64
	for _, l := range cpuLayers {
		sum += f.layers[l]
		pct += f.share(f.layers[l])
	}
	if sum != f.total || f.total != 10 {
		t.Errorf("layers sum to %d samples, total %d", sum, f.total)
	}
	if pct < 99.999 || pct > 100.001 {
		t.Errorf("layer shares sum to %.4f%%", pct)
	}
}

// TestFoldRealProfile decodes a real CPU profile of this process: every
// sample lands in a known layer and the layers sum to the total.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += len(sha("spin"))
	}
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.total == 0 || x == 0 {
		t.Skip("profile caught no samples")
	}
	var sum int64
	for _, l := range cpuLayers {
		sum += f.layers[l]
	}
	if sum != f.total {
		t.Errorf("layers sum to %d samples, total %d (%v)", sum, f.total, f.layers)
	}
	if f.layers["bench"] == 0 {
		t.Errorf("the spinning test function was not attributed to bench: %v", f.layers)
	}
	if f.cpuNs <= 0 {
		t.Errorf("profile carried no CPU time")
	}
}
