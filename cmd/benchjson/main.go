// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document mapping benchmark name to its measurements, so CI and
// the Makefile's bench target can record kernel performance machine-readably.
//
// Examples:
//
//	go test . -bench Kernel -benchmem | go run ./cmd/benchjson -o BENCH_kernel.json
//	go run ./cmd/benchjson -diff BENCH_traffic.json /tmp/new.json
//
// The output is deterministic for a given input: keys are sorted and no
// timestamps are embedded. Each document holds only its own run: the
// pre-overhaul kernel numbers live once, in BENCH_baseline.json.
//
// With -diff old.json new.json the command compares two recorded documents
// instead of reading stdin and exits non-zero when any shared benchmark
// regressed: ns/op worse than the -threshold fraction (default 10%), or any
// increase at all in allocs/op or in one of the kernel's exact work counts
// (events/op, overflows/op, starts/op, resumes/op, switches/op). That turns
// the checked-in BENCH_*.json files into a regression gate (`make
// bench-diff`) rather than just a log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result holds one benchmark line's measurements. The standard pairs get
// first-class fields; anything else (custom b.ReportMetric units) lands in
// Metrics keyed by unit.
type result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	Benchmarks map[string]result `json:"benchmarks"`
	Note       string            `json:"note,omitempty"`
}

// cpuSuffix strips the -N GOMAXPROCS suffix Go appends to benchmark names,
// so records from machines with different core counts share keys.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	r := result{Iterations: iters}
	// The remainder is "value unit" pairs: 21.20 ns/op  0 B/op  0 allocs/op ...
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return cpuSuffix.ReplaceAllString(fields[0], ""), r, true
}

// loadDoc reads a benchjson document from disk.
func loadDoc(path string) (document, error) {
	var doc document
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("parse %s: %w", path, err)
	}
	return doc, nil
}

// countUnits are the kernel's exact work counts a benchmark may report
// (calendar events filed, those filed into the calendar's overflow heap,
// process starts, resumes and baton switches per op). Like allocs/op they
// do not depend on the host, so any rise is a regression.
var countUnits = []string{"events/op", "overflows/op", "starts/op", "resumes/op", "switches/op"}

// diffDocs compares two recorded documents benchmark by benchmark and
// reports regressions to w: ns/op more than threshold (a fraction,
// 0.10 = 10%) above the old record, any allocs/op increase, or any rise
// in a count the old record holds (a count the new run no longer reports
// fails too).
// Benchmarks present in only one document are listed as explicit sorted
// "added"/"removed" lines but never fail the gate — new benchmarks must
// be recordable without a chicken-and-egg failure, and the output is
// byte-stable for a given input pair.
func diffDocs(w io.Writer, oldDoc, newDoc document, threshold float64) (failures int) {
	var shared, added, removed []string
	for name := range newDoc.Benchmarks {
		if _, ok := oldDoc.Benchmarks[name]; ok {
			shared = append(shared, name)
		} else {
			added = append(added, name)
		}
	}
	for name := range oldDoc.Benchmarks {
		if _, ok := newDoc.Benchmarks[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(shared)
	sort.Strings(added)
	sort.Strings(removed)
	for _, name := range shared {
		or, nr := oldDoc.Benchmarks[name], newDoc.Benchmarks[name]
		failed := or.NsPerOp > 0 && nr.NsPerOp > or.NsPerOp*(1+threshold) ||
			nr.AllocsPerOp > or.AllocsPerOp
		var counts strings.Builder
		for _, unit := range countUnits {
			ov, ok := or.Metrics[unit]
			if !ok {
				continue
			}
			nv, ok := nr.Metrics[unit]
			if !ok {
				failed = true
				fmt.Fprintf(&counts, "  %g -> missing %s", ov, unit)
				continue
			}
			failed = failed || nv > ov
			fmt.Fprintf(&counts, "  %g -> %g %s", ov, nv, unit)
		}
		status := "ok     "
		if failed {
			status = "FAIL   "
			failures++
		}
		delta := 0.0
		if or.NsPerOp > 0 {
			delta = (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		}
		fmt.Fprintf(w, "  %s %-40s %10.1f -> %10.1f ns/op (%+6.1f%%)  %6.0f -> %6.0f allocs/op%s\n",
			status, name, or.NsPerOp, nr.NsPerOp, delta, or.AllocsPerOp, nr.AllocsPerOp, counts.String())
	}
	for _, name := range added {
		nr := newDoc.Benchmarks[name]
		fmt.Fprintf(w, "  added   %-40s %10.1f ns/op %8.0f allocs/op (no old record)\n",
			name, nr.NsPerOp, nr.AllocsPerOp)
	}
	for _, name := range removed {
		fmt.Fprintf(w, "  removed %s (recorded but not in new run)\n", name)
	}
	return failures
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	note := flag.String("note", "", "free-form provenance note carried into the output")
	diff := flag.Bool("diff", false, "compare two recorded JSON documents (old new) and exit non-zero on regression")
	threshold := flag.Float64("threshold", 0.10, "ns/op regression tolerance for -diff, as a fraction")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		oldDoc, err := loadDoc(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		newDoc, err := loadDoc(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		fmt.Printf("benchjson diff: %s -> %s (ns/op tolerance %+.0f%%, allocs/op and counts tolerance 0)\n",
			flag.Arg(0), flag.Arg(1), *threshold*100)
		if n := diffDocs(os.Stdout, oldDoc, newDoc, *threshold); n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed\n", n)
			os.Exit(1)
		}
		return
	}

	doc := document{Benchmarks: map[string]result{}, Note: *note}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, r, ok := parseLine(line); ok {
			doc.Benchmarks[name] = r
		}
		// Pass the raw stream through so the human-readable log survives.
		fmt.Fprintln(os.Stderr, line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read stdin:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
