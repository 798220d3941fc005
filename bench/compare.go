package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Comparing two runs: one row per workload × end-to-end metric, judged
// against the bounds BENCHMARK.json fixes.

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end metrics of a BENCHMARK.json.
func loadBounds(path string) ([]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// Verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload × metric comparison.
type compareRow struct {
	Workload, Metric string
	A, B             stat
	Change           float64 // signed relative change from A to B
	Bound            float64
	Verdict          string
}

// judge compares one metric. worse is the change in the metric's bad
// direction; a side whose own min–max spread exceeds the bound, with ranges
// that overlap, cannot be told apart and is unresolved.
func judge(a, b stat, d boundDef) compareRow {
	row := compareRow{Metric: d.Name, A: a, B: b, Bound: d.Bound}
	if a.Value != 0 {
		row.Change = (b.Value - a.Value) / math.Abs(a.Value)
	}
	worse := row.Change
	if d.Better == "higher" {
		worse = -worse
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case overlap && (spread(a) > d.Bound || spread(b) > d.Bound):
		row.Verdict = verdictUnresolved
	case worse > d.Bound:
		row.Verdict = verdictWorse
	case worse < -d.Bound:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictSame
	}
	return row
}

// spread is a stat's min–max range relative to its value.
func spread(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Value)
}

func failedFrac(r workloadResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// compareSets judges every workload present in both sets. It reports
// failure on any worse row or on a workload whose failed fraction rose.
func compareSets(a, b map[string]workloadResult, bounds []boundDef) (rows []compareRow, failed []string) {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra := a[name]
		rb, ok := b[name]
		if !ok {
			continue
		}
		if fb, fa := failedFrac(rb), failedFrac(ra); fb > fa {
			failed = append(failed, fmt.Sprintf("%s: failed fraction rose from %.4g to %.4g", name, fa, fb))
		}
		for _, d := range bounds {
			sa, okA := ra.Metrics[d.Name]
			sb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			row := judge(sa, sb, d)
			row.Workload = name
			rows = append(rows, row)
			if row.Verdict == verdictWorse {
				failed = append(failed, fmt.Sprintf("%s %s: %+.2f%% beyond the %.0f%% bound", name, d.Name, 100*row.Change, 100*d.Bound))
			}
		}
	}
	return rows, failed
}

func runCompare(argA, argB, benchmarkJSON string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds(benchmarkJSON)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := loadSet(argA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadSet(argB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	rows, failed := compareSets(a, b, bounds)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench: no workload appears in both sets")
		return 2
	}
	fmt.Fprintf(stdout, "%-26s %-20s %12s %12s %9s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-26s %-20s %12.5g %12.5g %+8.2f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.A.Value, r.B.Value, 100*r.Change, 100*r.Bound, r.Verdict)
	}
	for _, f := range failed {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	return exitCode(len(failed) == 0)
}

// loadSet reads one set of a results document: "file" is its first set,
// "file#k" its set k.
func loadSet(arg string) (map[string]workloadResult, error) {
	path, idx := arg, 0
	if i := strings.LastIndexByte(arg, '#'); i >= 0 {
		k, err := strconv.Atoi(arg[i+1:])
		if err != nil {
			return nil, fmt.Errorf("%s: bad set index: %v", arg, err)
		}
		path, idx = arg[:i], k
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if idx < 0 || idx >= len(doc.Sets) {
		return nil, fmt.Errorf("%s: no set %d (file has %d)", path, idx, len(doc.Sets))
	}
	return doc.Sets[idx], nil
}
