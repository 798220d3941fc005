// Command tracestat analyzes a Chrome trace JSON written by dliobench (or
// any tool emitting the same format): it prints the paper's I/O-time
// decomposition — total, overlapping and non-overlapping I/O, compute time,
// hidden fraction and the application/system throughput views. With
// -project it also replays the trace against a different deployment and
// reports the projected runtime ("this ran on GPFS; what happens on
// VAST?").
//
// Usage:
//
//	dliobench -model resnet50 -fs vast -nodes 4 -trace run.json
//	tracestat run.json
//	tracestat -project gpfs -machine Lassen -nodes 4 run.json
package main

import (
	"flag"
	"fmt"
	"os"

	"storagesim/internal/cluster"
	"storagesim/internal/fsapi"
	"storagesim/internal/replay"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
	"storagesim/internal/units"
)

func main() {
	project := flag.String("project", "", "replay the trace on this deployment: vast (any machine), gpfs (Lassen), lustre (Ruby, Quartz), nvme or unifyfs (Wombat)")
	machine := flag.String("machine", "Lassen", "machine for -project")
	nodes := flag.Int("nodes", 1, "nodes for -project")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-project fs -machine M -nodes N] <trace.json>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	spans, err := trace.ReadChromeTrace(f)
	if err != nil {
		fail(err)
	}
	a := trace.Analyze(spans)
	fmt.Printf("spans: %d across %d ranks\n", len(spans), a.Ranks)
	fmt.Printf("  total I/O:       %12.3fs\n", a.TotalIO.Seconds())
	fmt.Printf("  overlapping:     %12.3fs\n", a.OverlapIO.Seconds())
	fmt.Printf("  non-overlapping: %12.3fs\n", a.NonOverlapIO.Seconds())
	fmt.Printf("  compute:         %12.3fs\n", a.ComputeTime.Seconds())
	fmt.Printf("  hidden:          %12.1f%%\n", 100*a.HiddenFraction())
	fmt.Printf("  bytes read:      %12s\n", units.Bytes(a.Bytes))
	fmt.Printf("  app view:        %12s (bytes / non-overlapping I/O)\n", units.BPS(a.AppThroughput()))
	fmt.Printf("  system view:     %12s (bytes / total I/O)\n", units.BPS(a.SysThroughput()))

	if *project != "" {
		res, err := projectTrace(spans, *project, *machine, *nodes)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nprojected onto %s on %s (%d nodes):\n", *project, *machine, *nodes)
		fmt.Printf("  runtime:         %12.3fs (original %.3fs, speedup %.2fx)\n",
			res.Runtime.Seconds(), res.OriginalRuntime.Seconds(), res.Speedup)
		fmt.Printf("  hidden I/O:      %12.1f%%\n", 100*res.Analysis.HiddenFraction())
		fmt.Printf("  stalls:          %12.3fs\n", res.Analysis.NonOverlapIO.Seconds())
	}
}

// projectTrace replays the spans on a fresh deployment.
func projectTrace(spans []trace.Span, fs, machine string, nodes int) (replay.Result, error) {
	env := sim.NewEnv()
	fab := sim.NewFabric(env)
	spec, err := cluster.MachineByName(machine)
	if err != nil {
		return replay.Result{}, err
	}
	cl, err := cluster.New(env, fab, spec, nodes)
	if err != nil {
		return replay.Result{}, err
	}
	sys, err := cluster.Deploy(cl, fs, nil)
	if err != nil {
		return replay.Result{}, err
	}
	var mounts []fsapi.Client
	for _, n := range cl.Nodes() {
		mounts = append(mounts, sys.Mount(n.Name, n.NIC))
	}
	return replay.Run(env, mounts, spans, replay.Config{}, trace.NewRecorder())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracestat:", err)
	os.Exit(1)
}
