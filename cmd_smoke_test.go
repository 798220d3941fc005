package storagesim_test

// End-to-end CLI smoke tests: build every command and run it with quick
// arguments, asserting on the output. These catch flag-wiring and
// rendering regressions that unit tests of the libraries cannot.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmds compiles the named commands once into a temp dir.
func buildCmds(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, b)
	}
	return string(b)
}

func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildCmds(t, "paperfigs", "iorbench", "dliobench", "tracestat", "mdbench", "trafficbench", "tracereplay", "whatif")

	out := run(t, filepath.Join(dir, "paperfigs"), "-fig", "table1")
	if !strings.Contains(out, "Lassen") || !strings.Contains(out, "Wombat") {
		t.Fatalf("paperfigs table1 output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "paperfigs"), "-fig", "1")
	if !strings.Contains(out, "CNodes") || !strings.Contains(out, "NSD servers") {
		t.Fatalf("paperfigs fig1 output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "iorbench"),
		"-machine", "Wombat", "-fs", "vast", "-nodes", "1", "-ppn", "8",
		"-workload", "analytics", "-segments", "64", "-bottlenecks", "2")
	if !strings.Contains(out, "read:") || !strings.Contains(out, "bottleneck 1:") {
		t.Fatalf("iorbench output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "iorbench"),
		"-machine", "Lassen", "-fs", "gpfs", "-nodes", "1", "-app", "cm1")
	if !strings.Contains(out, "CM1") {
		t.Fatalf("iorbench -app output:\n%s", out)
	}

	traceFile := filepath.Join(dir, "run.json")
	out = run(t, filepath.Join(dir, "dliobench"),
		"-model", "custom", "-samples", "64", "-sample-size", "1m",
		"-fs", "gpfs", "-nodes", "1", "-trace", traceFile)
	if !strings.Contains(out, "app throughput") {
		t.Fatalf("dliobench output:\n%s", out)
	}
	if _, err := os.Stat(traceFile); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}

	out = run(t, filepath.Join(dir, "tracestat"), traceFile)
	if !strings.Contains(out, "non-overlapping") {
		t.Fatalf("tracestat output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "tracestat"),
		"-project", "vast", "-machine", "Lassen", "-nodes", "1", traceFile)
	if !strings.Contains(out, "projected onto vast") || !strings.Contains(out, "speedup") {
		t.Fatalf("tracestat -project output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "mdbench"),
		"-machine", "Ruby", "-fs", "lustre", "-nodes", "1", "-ppn", "4", "-files", "32")
	if !strings.Contains(out, "creates:") || !strings.Contains(out, "removes:") {
		t.Fatalf("mdbench output:\n%s", out)
	}

	out = run(t, filepath.Join(dir, "trafficbench"),
		"-machine", "Wombat", "-fs", "vast", "-nodes", "2", "-duration", "500ms")
	if !strings.Contains(out, "ckpt") || !strings.Contains(out, "goodput") {
		t.Fatalf("trafficbench output:\n%s", out)
	}
	if strings.Contains(out, "retries") {
		t.Fatalf("trafficbench printed resilience counters for a spec that arms no policy:\n%s", out)
	}
	checkResilienceTable(t, dir)

	// tracereplay round trip: record a short synthetic run, re-ingest it,
	// replay it on the same deployment, and demand a passing audit.
	recFile := filepath.Join(dir, "rec.jsonl")
	run(t, filepath.Join(dir, "tracereplay"),
		"-record", "-machine", "Wombat", "-fs", "vast", "-nodes", "2",
		"-duration", "200ms", "-o", recFile)
	out = run(t, filepath.Join(dir, "tracereplay"),
		"-trace", recFile, "-machine", "Wombat", "-fs", "vast", "-nodes", "2", "-audit")
	if !strings.Contains(out, "metrics in band: PASS") || !strings.Contains(out, "rel err") {
		t.Fatalf("tracereplay audit output:\n%s", out)
	}
	out = run(t, filepath.Join(dir, "tracereplay"), "-trace", recFile, "-print-spec")
	if !strings.Contains(out, "tenants") {
		t.Fatalf("tracereplay -print-spec output:\n%s", out)
	}
	// The checked-in fidelity fixture must audit clean end to end.
	out = run(t, filepath.Join(dir, "tracereplay"),
		"-trace", "internal/experiments/testdata/fidelity_trace.jsonl",
		"-machine", "Wombat", "-fs", "vast", "-nodes", "2", "-audit")
	if !strings.Contains(out, "metrics in band: PASS") {
		t.Fatalf("tracereplay fixture audit output:\n%s", out)
	}
	// On Lustre the Wombat/VAST fixture audits out of band: exit 1, with
	// the report printed and the run's CPU profile written.
	prof := filepath.Join(dir, "audit.prof")
	b, err := exec.Command(filepath.Join(dir, "tracereplay"),
		"-trace", "internal/experiments/testdata/fidelity_trace.jsonl",
		"-machine", "Ruby", "-fs", "lustre", "-nodes", "2", "-audit", "-cpuprofile", prof).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(b), "audit failed") {
		t.Fatalf("tracereplay failing audit: %v\n%s", err, b)
	}
	if p, err := os.ReadFile(prof); err != nil || len(p) == 0 {
		t.Fatalf("failing audit left a %d-byte CPU profile (%v)", len(p), err)
	}

	// whatif: search the pinned fixture space (built-in default) and a
	// space file, with frontier table and JSON export.
	resFile := filepath.Join(dir, "whatif.json")
	out = run(t, filepath.Join(dir, "whatif"),
		"-space", "internal/experiments/testdata/whatif_space.json",
		"-budget", "60", "-print-frontier", "-out", resFile)
	if !strings.Contains(out, "whatif-frontier") || !strings.Contains(out, "verified=60") {
		t.Fatalf("whatif output:\n%s", out)
	}
	if b, err := os.ReadFile(resFile); err != nil || !strings.Contains(string(b), "Frontier") {
		t.Fatalf("whatif -out file: %v\n%s", err, b)
	}

	csvDir := filepath.Join(dir, "csv")
	run(t, filepath.Join(dir, "paperfigs"), "-fig", "takeaways", "-quick", "-csv", csvDir)
	run(t, filepath.Join(dir, "paperfigs"), "-fig", "ablations", "-quick", "-csv", csvDir)
	for _, name := range []string{"takeaway-rdma-vs-tcp.csv", "ablation-fabric.csv"} {
		if _, err := os.Stat(filepath.Join(csvDir, name)); err != nil {
			t.Fatalf("csv export missing: %v", err)
		}
	}
}

// armedSpec is a one-tenant spec that arms every resilience mechanism.
// Its 1 µs deadline fails every attempt, so the retry, deadline-miss,
// breaker-shed and breaker-transition counters all move.
const armedSpec = `{"tenants": [{"name": "ckpt", "clients": 10000, "workload": "seq-write",
  "arrival": {"kind": "poisson", "rate": 0.01}, "request": "1m", "io": "1m", "max_inflight": 8,
  "deadline": "1us", "retry_policy": {"timeout": "1ms", "max_retries": 1},
  "hedge": {"quantile": 0.5, "min_samples": 8},
  "breaker": {"failures": 5, "cooldown": "50ms"}}],
 "brownout": {"capacity": 4}}`

// checkResilienceTable runs trafficbench, single and sharded, on
// armedSpec: after the main table it must print the resilience table,
// one row per tenant (the merged rows when sharded), with counts that
// moved.
func checkResilienceTable(t *testing.T, dir string) {
	t.Helper()
	specFile := filepath.Join(dir, "armed.json")
	if err := os.WriteFile(specFile, []byte(armedSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, racks := range []string{"1", "2"} {
		out := run(t, filepath.Join(dir, "trafficbench"), "-machine", "Wombat", "-fs", "vast",
			"-racks", racks, "-nodes", "1", "-duration", "300ms", "-spec", specFile)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		n := len(lines)
		header := strings.Fields(lines[n-2])
		want := []string{"tenant", "retries", "hedges", "hedge-won", "dl-miss",
			"shed-adm", "shed-brwn", "shed-brkr", "brk-open", "brk-half", "brk-close"}
		row := strings.Fields(lines[n-1])
		if strings.Join(header, " ") != strings.Join(want, " ") || len(row) != len(want) || row[0] != "ckpt" ||
			!strings.Contains(strings.Join(lines[:n-2], "\n"), "goodput") {
			t.Fatalf("trafficbench -racks %s resilience table:\n%s", racks, out)
		}
		if strings.Trim(strings.Join(row[1:], ""), "0") == "" {
			t.Fatalf("trafficbench -racks %s: every resilience counter is zero:\n%s", racks, out)
		}
	}
}

// TestTrafficFlagErrors: a traffic window, load or count the engine cannot
// run, a flag combination it cannot honour, a profile path that cannot be
// created, a missing input, or a (machine, file system) pair no deployment
// exists for, is a user error. The traffic CLIs, paperfigs, mdbench and
// tracestat must exit 1 with an error line before any output, never panic,
// never hang (a NaN or infinite load once spun forever), and never run
// with a flag silently replaced or dropped (a zero rep count once ran one
// rep, a sharded tracereplay once ignored -audit, -o and -record, and the
// traffic CLIs once ran unprofiled past an unwritable profile path). An
// error after the profiles started still writes the CPU profile (the
// commands once left it empty).
func TestTrafficFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildCmds(t, "trafficbench", "tracereplay", "paperfigs", "mdbench", "tracestat", "iorbench")
	traffic := []string{"trafficbench", "tracereplay"}
	profiled := []string{"trafficbench", "tracereplay", "paperfigs"}
	fixture := "internal/experiments/testdata/fidelity_trace.jsonl"
	chromeTrace := filepath.Join(dir, "run.json")
	span := `{"traceEvents":[{"name":"read","ph":"X","ts":0,"dur":1000,"pid":0,"args":{"bytes":4096}}]}`
	if err := os.WriteFile(chromeTrace, []byte(span), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	// Schedules that fail every server of the deployment: the two Wombat
	// nodes under node-local NVMe, the eight CNodes of Wombat's VAST.
	lastFail := func(name string, servers int) string {
		var evs []string
		for i := 0; i < servers; i++ {
			evs = append(evs, fmt.Sprintf(`{"at":"1ms","kind":"server-fail","index":%d}`, i))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(`{"events":[`+strings.Join(evs, ",")+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	lastNode, lastCNode := lastFail("last-node.json", 2), lastFail("last-cnode.json", 8)
	for _, tc := range []struct {
		cmds    []string
		flags   []string
		want    string
		profile bool // profile the run and require a CPU profile after the error
	}{
		{traffic, []string{"-duration", "0s"}, "duration 0s is not positive", false},
		{traffic, []string{"-load", "-2"}, "load scale -2", false},
		{traffic, []string{"-racks", "2", "-remote", "1.5"}, "remote fraction 1.5 out of [0,1]", false},
		{traffic, []string{"-load", "NaN"}, "load scale NaN", false},
		{traffic, []string{"-load", "+Inf"}, "load scale +Inf", false},
		{traffic, []string{"-racks", "0"}, "racks 0 is not positive", false},
		{traffic, []string{"-racks", "-1"}, "racks -1 is not positive", false},
		{[]string{"paperfigs"}, []string{"-reps", "0"}, "reps 0 is not positive", false},
		{[]string{"paperfigs"}, []string{"-reps", "-3"}, "reps -3 is not positive", false},
		{[]string{"paperfigs"}, []string{"-racks", "-2"}, "racks -2 is negative", false},
		{[]string{"tracereplay"}, []string{"-racks", "2", "-audit"}, "-audit is not supported with -racks > 1", false},
		{[]string{"tracereplay"}, []string{"-racks", "2", "-o", filepath.Join(dir, "audit.json")}, "-o is not supported with -racks > 1", false},
		{[]string{"tracereplay"}, []string{"-racks", "2", "-record"}, "-record is not supported with -racks > 1", false},
		{[]string{"tracereplay"}, []string{"-trace", fixture, "-io", "lots"}, "lots", false},
		{[]string{"tracereplay"}, []string{"-trace", fixture, "-abs-latency", "soon"}, "soon", false},
		{[]string{"mdbench"}, []string{"-machine", "Wombat", "-fs", "gpfs"}, "gpfs on Wombat", false},
		{[]string{"tracestat"}, []string{"-project", "lustre", "-machine", "Lassen"}, "lustre on Lassen", false},
		{[]string{"iorbench"}, []string{"-machine", "Wombat", "-fs", "nvme", "-nodes", "2", "-faults", lastNode},
			"event 1: 1ms server-fail index=1 fails the last healthy server", false},
		{[]string{"trafficbench"}, []string{"-machine", "Wombat", "-fs", "vast", "-nodes", "2", "-duration", "0.1s", "-faults", lastCNode},
			"event 7: 1ms server-fail index=7 fails the last healthy server", false},
		{profiled, []string{"-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")}, "-cpuprofile", false},
		{profiled, []string{"-memprofile", filepath.Join(dir, "missing", "mem.prof")}, "-memprofile", false},
		{[]string{"trafficbench"}, []string{"-faults", missing}, "missing.json", true},
		{[]string{"tracereplay"}, []string{"-trace", missing}, "missing.json", true},
		{[]string{"paperfigs"}, []string{"-csv", filepath.Join(chromeTrace, "csv")}, "-csv", true},
	} {
		for _, name := range tc.cmds {
			args := append([]string{name}, tc.flags...)
			switch {
			case name == "paperfigs":
				// The cheapest figure, should a bad count be let through.
				args = append(args, "-fig", "table1")
			case name == "tracereplay" && tc.flags[0] == "-racks":
				// tracereplay takes -racks when replaying a trace, the
				// window and load in -record mode.
				args = append(args, "-trace", fixture)
			case name == "tracereplay" && tc.flags[0] != "-trace":
				args = append(args, "-record")
			case name == "tracestat":
				args = append(args, chromeTrace)
			}
			prof := filepath.Join(dir, name+"-error.prof")
			if tc.profile {
				args = append(args, "-cpuprofile", prof)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			var stdout, stderr strings.Builder
			cmd := exec.CommandContext(ctx, filepath.Join(dir, name), args[1:]...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			hung := ctx.Err() != nil
			cancel()
			var exit *exec.ExitError
			switch {
			case hung:
				t.Errorf("%v: hung", args)
			case !errors.As(err, &exit) || exit.ExitCode() != 1:
				t.Errorf("%v: %v, want exit status 1\n%s", args, err, stderr.String())
			case strings.Contains(stderr.String(), "panic") || !strings.Contains(stderr.String(), tc.want):
				t.Errorf("%v: stderr lacks %q or panicked:\n%s", args, tc.want, stderr.String())
			case stdout.Len() > 0:
				t.Errorf("%v: printed before failing:\n%s", args, stdout.String())
			}
			if tc.profile {
				// A CPU profile is gzip-compressed even with no samples.
				if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
					t.Errorf("%v: CPU profile after the error is not gzip data (%d bytes, %v)", args, len(b), err)
				}
			}
		}
	}
}
