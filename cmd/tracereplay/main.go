// Command tracereplay is the production trace pipeline's CLI: it ingests
// recorded traffic (CSV or JSONL request logs, Darshan DXT dumps, Chrome/
// DFTracer span traces), replays it open-loop against any simulated
// deployment, and — with -audit — holds the model to the trace's recorded
// metrics, emitting a per-metric error-band report (absolute + relative
// error, pass/fail against configurable tolerances).
//
// Examples:
//
//	tracereplay -trace prod.jsonl -machine Wombat -fs vast -nodes 4
//	tracereplay -trace prod.csv -machine Ruby -fs lustre -audit
//	tracereplay -trace job.dxt -tenant cm1 -machine Lassen -fs gpfs
//	tracereplay -trace prod.jsonl -print-spec          # fitted tenant spec
//	tracereplay -trace prod.jsonl -racks 4 -fs vast    # sharded, via fitted spec
//	tracereplay -record -duration 1s -o run.jsonl      # synthesize a recorded run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"storagesim/internal/experiments"
	"storagesim/internal/profiling"
	"storagesim/internal/sim"
	"storagesim/internal/trace"
	"storagesim/internal/traffic"
	"storagesim/internal/units"
)

func main() {
	traceFile := flag.String("trace", "", "recorded trace to ingest (.csv, .jsonl/.ndjson, .dxt, .json)")
	format := flag.String("format", "auto", "trace encoding: auto, csv, jsonl, dxt or chrome")
	tenant := flag.String("tenant", "", "tenant assigned to formats that record none (dxt, chrome)")
	machine := flag.String("machine", "Wombat", "Lassen, Ruby, Quartz or Wombat")
	fs := flag.String("fs", "vast", "vast, gpfs, lustre, nvme or unifyfs")
	nodes := flag.Int("nodes", 2, "compute nodes")
	ioSize := flag.String("io", "1m", "per-op transfer size used to re-issue data requests")
	audit := flag.Bool("audit", false, "compare the replay against the trace's recorded metrics and report error bands")
	tolLatency := flag.Float64("tol-latency", 0, "relative tolerance on p50/p95/p99 (0 = default 0.02)")
	tolGoodput := flag.Float64("tol-goodput", 0, "relative tolerance on per-tenant goodput (0 = default 0.05)")
	absLatency := flag.String("abs-latency", "", "absolute latency slack (default 100µs)")
	printSpec := flag.Bool("print-spec", false, "print the tenant spec fitted to the trace as JSON and exit")
	record := flag.Bool("record", false, "run the built-in tenant mix and record its request stream as JSONL (see -duration, -seed, -load)")
	duration := flag.String("duration", "1s", "recording window for -record")
	seed := flag.Uint64("seed", 0x5eed, "seed for -record")
	load := flag.Float64("load", 1, "offered-load multiplier for -record")
	out := flag.String("o", "", "output file (-record: the JSONL stream; -audit: the report as JSON)")
	racks := flag.Int("racks", 1, "replay across this many racks via the fitted spec (sharded; no -audit, -o or -record)")
	remote := flag.Float64("remote", 0.25, "fraction of requests placed on another rack (racks > 1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	switch {
	case *racks < 1:
		fail(fmt.Errorf("racks %d is not positive", *racks))
	case *racks > 1 && *record:
		fail(fmt.Errorf("-record is not supported with -racks > 1 (it records one single-rack run)"))
	case *racks > 1 && *audit:
		fail(fmt.Errorf("-audit is not supported with -racks > 1 (a sharded replay runs the fitted spec, not the recorded timestamps)"))
	case *racks > 1 && *out != "":
		fail(fmt.Errorf("-o is not supported with -racks > 1 (a sharded replay writes no report)"))
	}
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer stop()

	if *record {
		doRecord(*machine, *fs, *nodes, *duration, *seed, *load, *out)
		return
	}
	if *traceFile == "" {
		fail(fmt.Errorf("need -trace (or -record); see -h"))
	}
	data, err := os.ReadFile(*traceFile)
	if err != nil {
		fail(err)
	}
	f := trace.Format(*format)
	if *format == "auto" {
		f = trace.DetectFormat(*traceFile)
	}
	events, err := trace.ParseEvents(data, f, *tenant)
	if err != nil {
		fail(err)
	}
	tr, err := trace.Normalize(events)
	if err != nil {
		fail(err)
	}
	fmt.Printf("trace: %s (%s): %d events, %d tenants, span %v\n",
		*traceFile, f, len(tr.Events), len(tr.TenantNames()), tr.Duration())

	if *printSpec {
		spec, err := traffic.SpecFromTrace(tr)
		if err != nil {
			fail(err)
		}
		js, err := spec.MarshalJSON()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(js))
		return
	}

	io64, err := units.ParseBytes(*ioSize)
	if err != nil {
		fail(err)
	}

	if *racks > 1 {
		doSharded(tr, *machine, *fs, *racks, *nodes, *remote, *seed)
		return
	}

	if !*audit {
		rep, err := experiments.ReplayTraceOn(*machine, experiments.FS(strings.ToLower(*fs)), *nodes, tr,
			traffic.TraceConfig{IOBytes: int64(io64)})
		if err != nil {
			fail(err)
		}
		fmt.Printf("replayed on %s/%s, %d nodes: makespan %v\n", *fs, *machine, *nodes, rep.Duration)
		printReport(rep)
		return
	}

	opts := experiments.AuditOptions{IOBytes: int64(io64)}
	opts.Tolerance.LatencyRel = *tolLatency
	opts.Tolerance.GoodputRel = *tolGoodput
	if *absLatency != "" {
		d, err := units.ParseDuration(*absLatency)
		if err != nil {
			fail(err)
		}
		opts.Tolerance.LatencyAbs = sim.Duration(d)
	}
	report, rep, err := experiments.FidelityAudit(*machine, experiments.FS(strings.ToLower(*fs)), *nodes, tr, opts)
	if err != nil {
		fail(err)
	}
	fmt.Printf("replayed on %s/%s, %d nodes: makespan %v (recorded %v)\n",
		*fs, *machine, *nodes, rep.Duration, tr.Duration())
	printReport(rep)
	fmt.Println()
	if err := report.WriteText(os.Stdout); err != nil {
		fail(err)
	}
	if *out != "" {
		js, err := report.MarshalJSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fail(err)
		}
	}
	if !report.Passed() {
		os.Exit(1)
	}
}

// doRecord runs the built-in tenant mix and writes its recorded request
// stream as JSONL — a synthetic "production" recording for round-trip
// audits and pinned fixtures.
func doRecord(machine, fs string, nodes int, duration string, seed uint64, load float64, out string) {
	window, err := units.ParseDuration(duration)
	if err != nil {
		fail(err)
	}
	rep, events, err := experiments.RecordTraffic(machine, experiments.FS(strings.ToLower(fs)), nodes, traffic.Config{
		Spec:      experiments.SaturationTenants(),
		Duration:  sim.Duration(window),
		Seed:      seed,
		LoadScale: load,
	})
	if err != nil {
		fail(err)
	}
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteJSONL(w, events); err != nil {
		fail(err)
	}
	var completed uint64
	for _, tr := range rep.Tenants {
		completed += tr.Completed
	}
	fmt.Fprintf(os.Stderr, "recorded %d completed requests over %v on %s/%s (%d nodes)\n",
		completed, rep.Duration, fs, machine, nodes)
}

// doSharded replays the trace across racks through the fitted tenant spec:
// timestamped replay is single-rack; the spec abstraction is what lets a
// recorded stream ride the sharded engine.
func doSharded(tr *trace.Trace, machine, fs string, racks, nodes int, remote float64, seed uint64) {
	spec, err := traffic.SpecFromTrace(tr)
	if err != nil {
		fail(err)
	}
	cfg := traffic.Config{Spec: spec, Duration: tr.Duration(), Seed: seed}
	srep, err := experiments.RunShardedTraffic(machine, experiments.FS(strings.ToLower(fs)),
		racks, nodes, traffic.ShardedConfig{Config: cfg, RemoteFraction: remote})
	if err != nil {
		fail(err)
	}
	fmt.Printf("fitted spec replayed over %d racks × %d nodes on %s/%s, window %v\n",
		racks, nodes, fs, machine, tr.Duration())
	printReport(traffic.Report{Duration: srep.Duration, Tenants: srep.Tenants})
}

// printReport renders a replay report in trafficbench's table layout.
func printReport(rep traffic.Report) {
	fmt.Printf("%-10s %10s %8s %8s %12s %10s %10s %10s\n",
		"tenant", "offered", "shed", "done", "goodput", "p50", "p95", "p99")
	for _, tr := range rep.Tenants {
		goodput := 0.0
		if rep.Duration > 0 {
			goodput = tr.PayloadBytes / rep.Duration.Seconds()
		}
		fmt.Printf("%-10s %10d %8d %8d %12s %10v %10v %10v\n",
			tr.Name, tr.Offered, tr.Shed, tr.Completed,
			units.BPS(goodput), tr.P50, tr.P95, tr.P99)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracereplay:", err)
	os.Exit(1)
}
