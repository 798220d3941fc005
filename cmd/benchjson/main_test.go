package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, r, ok := parseLine("BenchmarkKernelSteady-8   1000000   21.20 ns/op   16 B/op   1 allocs/op   3.5 events/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if name != "BenchmarkKernelSteady" {
		t.Errorf("name %q (cpu suffix should be stripped)", name)
	}
	if r.Iterations != 1000000 || r.NsPerOp != 21.20 || r.BytesPerOp != 16 || r.AllocsPerOp != 1 {
		t.Errorf("result %+v", r)
	}
	if r.Metrics["events/op"] != 3.5 {
		t.Errorf("custom metric %+v", r.Metrics)
	}
	if _, _, ok := parseLine("PASS"); ok {
		t.Error("non-benchmark line parsed")
	}
}

func TestDiffDocs(t *testing.T) {
	doc := func(pairs ...any) document {
		d := document{Benchmarks: map[string]result{}}
		for i := 0; i+2 < len(pairs); i += 3 {
			d.Benchmarks[pairs[i].(string)] = result{
				NsPerOp:     pairs[i+1].(float64),
				AllocsPerOp: pairs[i+2].(float64),
			}
		}
		return d
	}
	// counted is a one-benchmark document that also reports counts.
	counted := func(ns float64, counts map[string]float64) document {
		d := doc("BenchmarkA", ns, 0.0)
		r := d.Benchmarks["BenchmarkA"]
		r.Metrics = counts
		d.Benchmarks["BenchmarkA"] = r
		return d
	}
	cases := []struct {
		name           string
		oldDoc, newDoc document
		threshold      float64
		wantFailures   int
		wantLines      []string // expected in order of appearance
		rejectLines    []string
	}{
		{
			name:         "within threshold passes",
			oldDoc:       doc("BenchmarkA", 100.0, 2.0),
			newDoc:       doc("BenchmarkA", 105.0, 2.0),
			threshold:    0.10,
			wantFailures: 0,
			wantLines:    []string{"ok      BenchmarkA"},
		},
		{
			name:         "ns regression fails",
			oldDoc:       doc("BenchmarkA", 100.0, 2.0),
			newDoc:       doc("BenchmarkA", 120.0, 2.0),
			threshold:    0.10,
			wantFailures: 1,
			wantLines:    []string{"FAIL    BenchmarkA"},
		},
		{
			name:         "alloc increase fails even within ns threshold",
			oldDoc:       doc("BenchmarkA", 100.0, 2.0),
			newDoc:       doc("BenchmarkA", 100.0, 3.0),
			threshold:    0.10,
			wantFailures: 1,
			wantLines:    []string{"FAIL    BenchmarkA"},
		},
		{
			name:         "switch count rise fails even within ns threshold",
			oldDoc:       counted(100.0, map[string]float64{"starts/op": 1.2, "resumes/op": 1.2, "switches/op": 1.055}),
			newDoc:       counted(90.0, map[string]float64{"starts/op": 1.2, "resumes/op": 1.2, "switches/op": 1.056}),
			threshold:    0.10,
			wantFailures: 1,
			wantLines:    []string{"FAIL    BenchmarkA", "1.055 -> 1.056 switches/op"},
		},
		{
			name:         "switch count fall passes",
			oldDoc:       counted(100.0, map[string]float64{"starts/op": 1.2, "resumes/op": 1.2, "switches/op": 2.5}),
			newDoc:       counted(100.0, map[string]float64{"starts/op": 1.2, "resumes/op": 1.2, "switches/op": 1.055}),
			threshold:    0.10,
			wantFailures: 0,
			wantLines:    []string{"ok      BenchmarkA", "1.2 -> 1.2 starts/op", "1.2 -> 1.2 resumes/op", "2.5 -> 1.055 switches/op"},
		},
		{
			name:         "start or resume count rise fails",
			oldDoc:       counted(100.0, map[string]float64{"starts/op": 1.2, "resumes/op": 1.2}),
			newDoc:       counted(100.0, map[string]float64{"starts/op": 1.2, "resumes/op": 1.3}),
			threshold:    0.10,
			wantFailures: 1,
			wantLines:    []string{"FAIL    BenchmarkA", "1.2 -> 1.3 resumes/op"},
		},
		{
			name:         "filed-event count rise fails even within ns threshold",
			oldDoc:       counted(100.0, map[string]float64{"events/op": 5.25, "starts/op": 0}),
			newDoc:       counted(90.0, map[string]float64{"events/op": 5.26, "starts/op": 0}),
			threshold:    0.10,
			wantFailures: 1,
			wantLines:    []string{"FAIL    BenchmarkA", "5.25 -> 5.26 events/op"},
		},
		{
			name:         "filed-event count fall passes",
			oldDoc:       counted(100.0, map[string]float64{"events/op": 5.25, "starts/op": 1.02}),
			newDoc:       counted(100.0, map[string]float64{"events/op": 4.25, "starts/op": 0}),
			threshold:    0.10,
			wantFailures: 0,
			wantLines:    []string{"ok      BenchmarkA", "5.25 -> 4.25 events/op", "1.02 -> 0 starts/op"},
		},
		{
			name:         "overflow-insert count rise fails even within ns threshold",
			oldDoc:       counted(100.0, map[string]float64{"events/op": 6.15, "overflows/op": 2.1}),
			newDoc:       counted(90.0, map[string]float64{"events/op": 6.15, "overflows/op": 2.2}),
			threshold:    0.10,
			wantFailures: 1,
			wantLines:    []string{"FAIL    BenchmarkA", "6.15 -> 6.15 events/op", "2.1 -> 2.2 overflows/op"},
		},
		{
			name:         "a recorded count the new run lacks fails; a new count does not",
			oldDoc:       counted(100.0, map[string]float64{"switches/op": 1.0}),
			newDoc:       counted(100.0, map[string]float64{"starts/op": 1.0}),
			threshold:    0.10,
			wantFailures: 1,
			wantLines:    []string{"FAIL    BenchmarkA", "1 -> missing switches/op"},
			rejectLines:  []string{"starts/op"},
		},
		{
			name:         "added and removed are sorted and never fail",
			oldDoc:       doc("BenchmarkOldB", 1.0, 0.0, "BenchmarkOldA", 1.0, 0.0, "BenchmarkShared", 10.0, 1.0),
			newDoc:       doc("BenchmarkNewB", 2.0, 0.0, "BenchmarkNewA", 2.0, 0.0, "BenchmarkShared", 10.0, 1.0),
			threshold:    0.10,
			wantFailures: 0,
			wantLines: []string{
				"ok      BenchmarkShared",
				"added   BenchmarkNewA",
				"added   BenchmarkNewB",
				"removed BenchmarkOldA",
				"removed BenchmarkOldB",
			},
			rejectLines: []string{"new  Benchmark", "gone Benchmark"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			got := diffDocs(&b, tc.oldDoc, tc.newDoc, tc.threshold)
			if got != tc.wantFailures {
				t.Errorf("failures = %d, want %d\n%s", got, tc.wantFailures, b.String())
			}
			out := b.String()
			at := 0
			for _, want := range tc.wantLines {
				i := strings.Index(out[at:], want)
				if i < 0 {
					t.Fatalf("output missing %q after offset %d:\n%s", want, at, out)
				}
				at += i + len(want)
			}
			for _, reject := range tc.rejectLines {
				if strings.Contains(out, reject) {
					t.Errorf("output still contains %q:\n%s", reject, out)
				}
			}
			// Byte-stable: a second render must be identical.
			var b2 strings.Builder
			diffDocs(&b2, tc.oldDoc, tc.newDoc, tc.threshold)
			if b2.String() != out {
				t.Error("diff output is not deterministic")
			}
		})
	}
}
