// Package profiling backs the -cpuprofile/-memprofile flag pair shared by
// the CLI tools that drive the hot request path (trafficbench, tracereplay,
// paperfigs): one call after flag parsing starts the CPU profile, and the
// returned stop function ends it and writes the heap profile on the way
// out. Keeping it in one place means every tool profiles the same way —
// heap profiles are taken after a forced GC so they show live retention,
// not garbage awaiting collection.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath (when non-empty) and creates
// memPath (when non-empty) for the heap profile, so a path that cannot be
// created is an error before the run, not after it. The returned stop
// function ends the CPU profile and writes the heap profile; callers defer
// it right after a successful Start. With both paths empty, Start does
// nothing. Errors while stopping are reported on stderr, not returned: a
// failed profile write must never take down the run it was observing.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpuPath != "" {
		cpu, err = os.Create(cpuPath)
		if err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			report("-cpuprofile", cpu.Close())
		}
		if mem != nil {
			runtime.GC()
			report("-memprofile", pprof.WriteHeapProfile(mem))
			report("-memprofile", mem.Close())
		}
	}, nil
}

// report prints a non-nil error from stopping a profile.
func report(flag string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "profiling: %s: %v\n", flag, err)
	}
}
