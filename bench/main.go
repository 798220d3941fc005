// Command bench is the repository benchmark: four whole-run simulator
// workloads measured end to end, with a separate traced run that attributes
// time to layers.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload all|<name>] [-seed N] [-seconds S] [-trace 0|1] [-out file.json] [-sets N]
//	bash bench/run.sh -smoke
//	bash bench/run.sh -compare A.json[#set] B.json[#set]
//
// Each workload runs in its own child process (the benchmark re-executes
// itself) with GOMAXPROCS at most 2. A single-workload run prints one JSON
// object as its last line: correct, attempted, failed, and the end-to-end
// metrics (untraced) or the per-layer metrics (-trace 1).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"storagesim/internal/traffic"
)

// setupRuns is how many set-up-only processes a run starts; setup_s is
// their median, host-adjusted by the reference kernel timed around them.
const setupRuns = 15

// traceDir receives <workload>.trace.json from traced runs.
const traceDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	setups   int
	stderr   io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0x5eed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "seconds of timed reps per workload (at least one rep runs)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", "", "write the results of -workload all to this JSON file")
	sets := fs.Int("sets", 1, "with -workload all, run the whole set this many times")
	smoke := fs.Bool("smoke", false, "run every workload once at 1/100 size")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json[#set] B.json[#set]")
	child := fs.String("child", "", "internal: run as a workload process (setup or measure)")
	scale := fs.Float64("scale", 1, "internal: workload size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, scale: *scale,
		setups: setupRuns, stderr: stderr,
	}
	switch *traceFlag {
	case 0:
	case 1:
		cfg.trace = true
	default:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if cfg.workload != "all" && workloadByName(cfg.workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want all, %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 0 || cfg.scale <= 0 || *sets < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 0, -scale > 0 and -sets >= 1")
		return 2
	}
	if err := checkSpec(resilientSpec); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *child != "" {
		return runChild(*child, cfg, stdout, stderr)
	}
	if *smoke {
		cfg.workload, cfg.scale, cfg.seconds, cfg.setups = "all", 0.01, 0, 1
	}
	if cfg.workload != "all" {
		res := runWorkload(workloadByName(cfg.workload), cfg)
		printResult(stdout, cfg.workload, res, cfg.trace)
		line, err := json.Marshal(resultLine(res, cfg.trace))
		if err != nil {
			fmt.Fprintf(stderr, "bench: result: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		return exitCode(res.Correct)
	}
	return runAll(cfg, *sets, *out, stdout, stderr)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// checkSpec validates traffic-sharded-resilient's tenant spec before any
// workload runs.
func checkSpec(data []byte) error {
	if _, err := traffic.ParseSpec(data); err != nil {
		return fmt.Errorf("spec specs/resilient.json: %w", err)
	}
	return nil
}

func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

// procs is the GOMAXPROCS of workload processes.
func procs() int {
	return min(2, runtime.NumCPU())
}

func (c config) params() params {
	return params{seed: c.seed, scale: c.scale, domains: procs()}
}

// runChild is the body of a workload process: "setup" builds one rep's
// set-up and exits; "measure" measures the workload and prints its result
// as one JSON line.
func runChild(mode string, cfg config, stdout, stderr io.Writer) int {
	w := workloadByName(cfg.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: child needs a workload, got %q\n", cfg.workload)
		return 2
	}
	switch mode {
	case "setup":
		p := cfg.params()
		if err := protect(func() error { _, err := w.setUp(&p); return err }); err != nil {
			fmt.Fprintf(stderr, "bench: %s set-up: %v\n", w.name, err)
			return 1
		}
		return 0
	case "measure":
		res, tr := measure(w, cfg.params(), cfg.seconds, cfg.trace)
		if tr != nil {
			if err := tr.writeChrome(traceDir, w.name); err != nil {
				res.Failed++
				res.Errors = append(res.Errors, "span file: "+err.Error())
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	fmt.Fprintf(stderr, "bench: unknown child mode %q\n", mode)
	return 2
}

// workloadResult is one workload's run.
type workloadResult struct {
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Digest    string          `json:"digest"`
	Reps      int             `json:"reps"`
	Errors    []string        `json:"errors,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Attempted++
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload in child processes: the set-up-only
// processes that time setup_s, then the measuring process.
func runWorkload(w *workload, cfg config) workloadResult {
	var res workloadResult
	self, err := os.Executable()
	if err != nil {
		res.fail("executable: %v", err)
		return res
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64)}
	var setups []float64
	if !cfg.trace {
		if setups, err = timeSetups(self, args, cfg); err != nil {
			res.fail("%v", err)
		}
	}
	limit := time.Duration(cfg.seconds)*time.Second + 150*time.Second
	out, rssKiB, err := spawn(self, append([]string{"-child", "measure",
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(boolInt(cfg.trace))}, args...), limit, cfg.stderr)
	if err != nil {
		res.fail("measuring process: %v", err)
		return res
	}
	var child childResult
	if err := json.Unmarshal(lastLine(out), &child); err != nil {
		res.fail("measuring process output: %v", err)
		return res
	}
	res.Attempted += child.Attempted
	res.Failed += child.Failed
	res.Errors = append(res.Errors, child.Errors...)
	res.Digest, res.Reps, res.Metrics = child.Digest, child.Reps, child.Metrics
	if res.Metrics == nil {
		// A process whose input generation failed measured nothing.
		res.Metrics = map[string]stat{}
	}
	if !cfg.trace {
		res.Metrics["setup_s"] = statOf("s", setups)
		rss := float64(rssKiB) / 1024
		res.Metrics["peak_rss_mib"] = stat{Value: rss, Unit: "MiB", Min: rss, Max: rss, Samples: 1}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// timeSetups starts cfg.setups set-up-only processes one after another and
// returns their host-adjusted spawn-to-exit times.
func timeSetups(self string, args []string, cfg config) ([]float64, error) {
	refBefore, err := hostRef()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		if _, _, err := spawn(self, append([]string{"-child", "setup"}, args...), time.Minute, cfg.stderr); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	// The first call mapped the kernel's memory; this one cannot fail.
	refAfter, _ := hostRef()
	ref := math.Sqrt(refBefore * refAfter)
	for i := range times {
		times[i] = hostAdjust(times[i], ref)
	}
	return times, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spawn runs this binary as a child process and waits for it, returning
// its standard output and peak resident set (KiB). The child is killed if
// it outlives limit or this process.
func spawn(self string, args []string, limit time.Duration, stderr io.Writer) ([]byte, int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err := cmd.Run()
	var rss int64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = ru.Maxrss
		}
	}
	return out.Bytes(), rss, err
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// resultLine is the last line of a single-workload run.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(r workloadResult, traced bool) map[string]any {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	metrics := map[string]lineMetric{}
	for _, d := range defs {
		if s, ok := r.Metrics[d.name]; ok {
			metrics[d.name] = lineMetric{Value: s.Value, Unit: d.unit}
		}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// printResult writes one workload's metrics as a table.
func printResult(w io.Writer, name string, r workloadResult, traced bool) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d reps=%d digest=%s\n",
		name, r.Correct, r.Attempted, r.Failed, r.Reps, r.Digest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	for _, d := range defs {
		s, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-30s %14.6g %-9s [%.6g .. %.6g] n=%d\n", d.name, s.Value, d.unit, s.Min, s.Max, s.Samples)
	}
	if s, ok := r.Metrics["host_ref_ms"]; ok {
		fmt.Fprintf(w, "   times are host-adjusted: reference kernel %.4g ms [%.4g .. %.4g], nominal %.4g ms\n", s.Value, s.Min, s.Max, 1e3*refNominal)
	}
}

// resultsDoc is the file -out writes and -compare reads.
type resultsDoc struct {
	Machine machine                     `json:"machine"`
	Seed    uint64                      `json:"seed"`
	Seconds float64                     `json:"seconds"`
	Trace   bool                        `json:"trace"`
	Sets    []map[string]workloadResult `json:"sets"`
}

type machine struct {
	CPU        string `json:"cpu"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisMachine() machine {
	return machine{CPU: cpuModel(), Nproc: runtime.NumCPU(), GOMAXPROCS: procs(), Go: runtime.Version()}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll runs every workload, sets times, printing each and optionally
// writing the results document.
func runAll(cfg config, sets int, outPath string, stdout, stderr io.Writer) int {
	doc := resultsDoc{Machine: thisMachine(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	ok := true
	for s := 0; s < sets; s++ {
		set := map[string]workloadResult{}
		for _, w := range workloads {
			c := cfg
			c.workload = w.name
			res := runWorkload(w, c)
			printResult(stdout, w.name, res, cfg.trace)
			set[w.name] = res
			ok = ok && res.Correct
		}
		doc.Sets = append(doc.Sets, set)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: -out: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "all workloads correct: %v\n", ok)
	return exitCode(ok)
}
