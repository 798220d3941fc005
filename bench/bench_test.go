package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"storagesim/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// test runs the CLI, which re-executes itself for each workload process.
// Workload processes of the test binary also know badInput.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		workloads = append(workloads, badInput)
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// badInput is a workload whose input generation fails.
var badInput = &workload{
	name: "bad-input",
	input: func(uint64, float64) (*recording, error) {
		return nil, errors.New("no recording")
	},
	setUp: func(*params) (*rep, error) {
		return &rep{ops: []func() error{func() error { return nil }}, check: func(*repResult) {}}, nil
	},
}

// smallParams returns a workload's parameters at 1/100 size, with its input.
func smallParams(t *testing.T, w *workload) params {
	t.Helper()
	p, err := withInput(w, params{seed: 0x5eed, scale: 0.01, domains: 2})
	if err != nil {
		t.Fatalf("%s input: %v", w.name, err)
	}
	return p
}

func mustRep(t *testing.T, w *workload, p params) repResult {
	t.Helper()
	r, _, _ := oneRep(w, &p)
	if r.failed > 0 || r.ops == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, r.failed, r.ops, r.errs)
	}
	return r
}

// TestObservationOnly holds the benchmark to observing without changing
// the model: a traced rep (spans, counting mounts, fabric accounting, CPU
// profile) produces the same model digest as an untraced one.
func TestObservationOnly(t *testing.T) {
	for _, w := range workloads {
		p := smallParams(t, w)
		plain := mustRep(t, w, p)
		traced := p
		traced.tr, traced.probe = newTracer(), &probe{}
		got := mustRep(t, w, traced)
		if got.digest != plain.digest {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, got.digest, plain.digest)
		}
		if w.name != "paper-quick" && got.counts["traffic.offered"] == 0 {
			t.Errorf("%s: traced rep counted no offered requests", w.name)
		}
		if w.name != "paper-quick" && got.counts["fsapi.stream_read"] == 0 {
			t.Errorf("%s: counting mounts saw no stream reads", w.name)
		}
	}
}

// TestOpenMatchesExperiments checks that the benchmark-built testbed is the
// one the experiments build: traffic-open's digest equals RunTraffic's for
// the same configuration.
func TestOpenMatchesExperiments(t *testing.T) {
	w := workloadByName("traffic-open")
	p := smallParams(t, w)
	got := mustRep(t, w, p)
	rep, err := experiments.RunTraffic("Wombat", experiments.VAST, openNodes, openConfig(&p))
	if err != nil {
		t.Fatal(err)
	}
	if want := sha(runDigest(rep)); got.digest != want {
		t.Errorf("benchmark testbed digest %s, experiments.RunTraffic %s", got.digest, want)
	}
}

// TestShardedExecutorsAgree checks that the sharded workload's result does
// not depend on how many executors advance the racks.
func TestShardedExecutorsAgree(t *testing.T) {
	w := workloadByName("traffic-sharded-resilient")
	p := smallParams(t, w)
	p.domains = 1
	one := mustRep(t, w, p)
	p.domains = 2
	two := mustRep(t, w, p)
	if one.digest != two.digest {
		t.Errorf("1 executor digest %s, 2 executors %s", one.digest, two.digest)
	}
	if two.work == 0 {
		t.Error("sharded rep resolved no requests")
	}
}

// TestFailuresAreCounted checks that a failing set-up or a panicking timed
// phase becomes a failed operation in a well-formed result, untraced and
// traced.
func TestFailuresAreCounted(t *testing.T) {
	for _, w := range []*workload{
		{name: "bad-setup", setUp: func(*params) (*rep, error) {
			return nil, errors.New("no testbed")
		}},
		{name: "panics", setUp: func(*params) (*rep, error) {
			return &rep{ops: []func() error{func() error { panic("model bug") }}, check: func(*repResult) {}}, nil
		}},
		{name: "check panics", setUp: func(*params) (*rep, error) {
			return &rep{ops: []func() error{func() error { return nil }}, check: func(*repResult) { panic("check bug") }}, nil
		}},
	} {
		for _, traced := range []bool{false, true} {
			res, _ := measure(w, params{scale: 1}, 0, traced)
			if res.Failed == 0 || res.Attempted < res.Failed {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", w.name, traced, err)
			}
		}
	}
	// A workload process whose input generation fails reports no metrics;
	// the parent still adds its own and counts the failure.
	for _, traced := range []bool{false, true} {
		res := runWorkload(badInput, config{workload: badInput.name, seed: 1, scale: 0.01, trace: traced, setups: 1, stderr: io.Discard})
		if res.Correct || res.Failed == 0 {
			t.Errorf("bad-input traced=%v: correct %v, failed %d", traced, res.Correct, res.Failed)
		}
		if _, ok := res.Metrics["setup_s"]; !traced && !ok {
			t.Error("bad-input: untraced result lacks setup_s")
		}
	}
}

// TestSmoke runs the CLI's smoke mode end to end, workload processes
// included.
func TestSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "== "+w.name+": correct=true") {
			t.Errorf("smoke output lacks a correct %s:\n%s", w.name, out.String())
		}
	}
}

// TestInputErrors checks that bad flags exit 2 with a message, and that the
// spec check run before any workload rejects an invalid spec.
func TestInputErrors(t *testing.T) {
	if err := checkSpec(resilientSpec); err != nil {
		t.Errorf("specs/resilient.json: %v", err)
	}
	for _, bad := range []string{``, `{`, `{"tenants": [{"name": "x", "clients": 0}]}`, `{"tenants": [], "extra": 1}`} {
		if checkSpec([]byte(bad)) == nil {
			t.Errorf("spec %q passed the check", bad)
		}
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown workload", []string{"-workload", "nope"}},
		{"malformed seed", []string{"-seed", "12x"}},
		{"bad trace value", []string{"-trace", "2"}},
		{"compare arity", []string{"-compare", "a.json"}},
		{"stray argument", []string{"extra"}},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if errOut.Len() == 0 {
			t.Errorf("%s: no message on stderr", tc.name)
		}
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json and the metrics this
// program reports in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []boundDef   `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
	layers := perLayer()
	if len(doc.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(doc.PerLayer), len(layers))
	}
	for i, m := range layers {
		if got := doc.PerLayer[i]; got != (metricJSON{m.name, m.unit, m.better}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
}

// TestPaperFiguresMatchPaperfigs keeps paper-quick's figure list equal to
// the one paperfigs runs for -fig all, names and order.
func TestPaperFiguresMatchPaperfigs(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../cmd/paperfigs/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "figures" || len(spec.Values) != 1 {
			return true
		}
		list, ok := spec.Values[0].(*ast.CompositeLit)
		if !ok {
			t.Fatal("paperfigs' figures is not a composite literal")
		}
		for _, e := range list.Elts {
			lit, ok := e.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				t.Fatalf("paperfigs figure entry %T is not a literal", e)
			}
			name, ok := lit.Elts[0].(*ast.BasicLit)
			if !ok || name.Kind != token.STRING {
				t.Fatal("paperfigs figure name is not a string literal")
			}
			s, err := strconv.Unquote(name.Value)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, s)
		}
		return false
	})
	var got []string
	for _, f := range paperFigures {
		got = append(got, f.name)
	}
	if len(want) == 0 || strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("paper-quick figures %v, paperfigs figures %v", got, want)
	}
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}
