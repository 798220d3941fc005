package storagesim_test

// End-to-end CLI smoke tests: build every command and run it with quick
// arguments, asserting on the output. These catch flag-wiring and
// rendering regressions that unit tests of the libraries cannot.

import (
	"context"
	"errors"
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
	if _, err := os.Stat(filepath.Join(csvDir, "takeaway-rdma-vs-tcp.csv")); err != nil {
		t.Fatalf("csv export missing: %v", err)
	}
}

// TestTrafficFlagErrors: a traffic window or load the engine cannot run is
// a user error. Both traffic CLIs must exit 1 with an error line, never
// panic, and never hang (a NaN or infinite load once spun forever).
func TestTrafficFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildCmds(t, "trafficbench", "tracereplay")
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-duration", "0s"}, "duration 0s is not positive"},
		{[]string{"-load", "-2"}, "load scale -2"},
		{[]string{"-racks", "2", "-remote", "1.5"}, "remote fraction 1.5 out of [0,1]"},
		{[]string{"-load", "NaN"}, "load scale NaN"},
		{[]string{"-load", "+Inf"}, "load scale +Inf"},
	} {
		// tracereplay takes the window and load in -record mode, and -racks
		// only when replaying a trace.
		replay := []string{"tracereplay", "-record"}
		if tc.flags[0] == "-racks" {
			replay = []string{"tracereplay", "-trace", "internal/experiments/testdata/fidelity_trace.jsonl"}
		}
		for _, args := range [][]string{
			append([]string{"trafficbench"}, tc.flags...),
			append(replay, tc.flags...),
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			var stderr strings.Builder
			cmd := exec.CommandContext(ctx, filepath.Join(dir, args[0]), args[1:]...)
			cmd.Stderr = &stderr
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
			}
		}
	}
}
