// Command trafficbench drives a storage deployment with the open-loop
// multi-tenant traffic engine: millions of logical clients aggregated into
// per-tenant arrival processes, per-tenant SLO accounting, optional fault
// schedules, and admission control with queue-depth backpressure.
//
// Examples:
//
//	trafficbench -machine Wombat -fs vast -nodes 4 -duration 2s
//	trafficbench -machine Ruby -fs lustre -spec tenants.json -load 8
//	trafficbench -machine Wombat -fs vast -faults sched.json -duration 5s
//	trafficbench -print-spec > tenants.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"storagesim/internal/experiments"
	"storagesim/internal/faults"
	"storagesim/internal/profiling"
	"storagesim/internal/traffic"
	"storagesim/internal/units"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trafficbench:", err)
		os.Exit(1)
	}
}

// run is the command. Every error returns through it, so the deferred
// profile stop writes the profiles on every exit path after they start.
func run() error {
	machine := flag.String("machine", "Wombat", "Lassen, Ruby, Quartz or Wombat")
	fs := flag.String("fs", "vast", "vast, gpfs, lustre, nvme or unifyfs (Wombat)")
	nodes := flag.Int("nodes", 4, "compute nodes")
	specFile := flag.String("spec", "", "JSON tenant spec (default: the built-in 4-tenant 1M-client mix)")
	duration := flag.String("duration", "2s", "open-loop window (Go duration or bare seconds)")
	seed := flag.Uint64("seed", 0x5eed, "seed")
	load := flag.Float64("load", 1, "offered-load multiplier applied to every tenant's arrival rate")
	faultsFile := flag.String("faults", "", "JSON fault schedule to arm during the window (see internal/faults)")
	printSpec := flag.Bool("print-spec", false, "print the built-in tenant spec as JSON and exit")
	racks := flag.Int("racks", 1, "split the cluster into this many racks (domain shards), -nodes per rack")
	remote := flag.Float64("remote", 0.25, "fraction of requests placed on another rack (racks > 1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *racks < 1 {
		return fmt.Errorf("racks %d is not positive", *racks)
	}
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stop()

	spec := experiments.SaturationTenants()
	if *printSpec {
		out, err := spec.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		spec, err = traffic.ParseSpec(data)
		if err != nil {
			return err
		}
	}

	window, err := units.ParseDuration(*duration)
	if err != nil {
		return err
	}
	var sched faults.Schedule
	if *faultsFile != "" {
		data, err := os.ReadFile(*faultsFile)
		if err != nil {
			return err
		}
		sched, err = faults.ParseSchedule(data)
		if err != nil {
			return err
		}
	}

	cfg := traffic.Config{Spec: spec, Duration: window, Seed: *seed, LoadScale: *load}
	var rep traffic.Report
	var applied []faults.Applied
	if *racks > 1 {
		if *faultsFile != "" {
			return fmt.Errorf("-faults is not supported with -racks > 1 (use the chaos gate's sharded storms)")
		}
		srep, err := experiments.RunShardedTraffic(*machine, experiments.FS(strings.ToLower(*fs)),
			*racks, *nodes, traffic.ShardedConfig{Config: cfg, RemoteFraction: *remote})
		if err != nil {
			return err
		}
		fmt.Printf("machine=%s fs=%s racks=%d nodes/rack=%d remote=%g window=%v load=%gx seed=%#x\n",
			*machine, *fs, *racks, *nodes, *remote, window, *load, *seed)
		for _, rr := range srep.Racks {
			var offered, completed uint64
			for _, tr := range rr.Tenants {
				offered += tr.Offered
				completed += tr.Completed
			}
			fmt.Printf("  %s: offered=%d completed=%d\n", rr.Name, offered, completed)
		}
		rep = traffic.Report{Duration: srep.Duration, Tenants: srep.Tenants}
	} else {
		rep, applied, err = experiments.RunTrafficWithFaults(*machine, experiments.FS(strings.ToLower(*fs)),
			*nodes, cfg, sched)
		if err != nil {
			return err
		}
		fmt.Printf("machine=%s fs=%s nodes=%d window=%v load=%gx seed=%#x\n",
			*machine, *fs, *nodes, window, *load, *seed)
	}
	for _, a := range applied {
		fmt.Printf("  fault: %v\n", a)
	}
	fmt.Printf("%-8s %10s %8s %8s %8s %12s %10s %10s %10s %10s\n",
		"tenant", "offered", "shed", "done", "inflight", "goodput", "p50", "p99", "slo", "attain")
	for _, tr := range rep.Tenants {
		slo, attain := "-", "-"
		if tr.SLOP99 > 0 {
			slo = tr.SLOP99.String()
			if !math.IsNaN(tr.SLOAttainment) {
				attain = fmt.Sprintf("%.1f%%", 100*tr.SLOAttainment)
			}
		}
		fmt.Printf("%-8s %10d %8d %8d %8d %12s %10v %10v %10s %10s\n",
			tr.Name, tr.Offered, tr.Shed, tr.Completed, tr.InFlightEnd,
			units.BPS(tr.GoodputBps(rep.Duration)), tr.P50, tr.P99, slo, attain)
	}
	return nil
}
