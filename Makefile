# Development targets. `make check` is the repository gate: vet (gofmt
# included), build, the whole test suite (tier-1 and the CLI smoke), the
# race-enabled tests, the whole internal suite under the oracle kernel
# build, a short fuzz pass over each input parser and differential, one
# iteration of each micro-benchmark (catches benchmark rot without paying
# for stable timings), the repository benchmark's own tests and smoke run,
# and last bench-diff, whose ns/op check depends on the host.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race oracle fuzz-smoke bench-smoke bench-module bench-diff bench loc

check: vet build test race oracle fuzz-smoke bench-smoke bench-module bench-diff

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race gate checks the baton's hand-offs between process goroutines
# (docs/MODEL.md §11) and that the figure sweeps' concurrent simulations
# (§6) share no state. A sim.Group starts no goroutine of its own.
race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... \
		./internal/faults/... ./internal/vast/... ./internal/repair/... \
		./internal/traffic/... ./internal/trace/... ./internal/fidelity/... \
		./internal/resilience/... ./internal/configsearch/... \
		./internal/surrogate/...
	$(GO) test -race -tags simreference ./internal/sim/

# The oracle build: -tags simreference swaps the DES kernel's calendar
# queue for the seed's binary-heap scheduler. Every internal test passes
# unchanged under it, so every golden (TestGolden), chaos digest and
# lockstep digest is byte-identical across the two kernel builds.
oracle:
	$(GO) test -tags simreference ./internal/...

bench-smoke:
	$(GO) test ./internal/sim/ -run XXX -bench BenchmarkFabricSolver -benchtime=1x
	$(GO) test . -run XXX -bench 'BenchmarkKernel|BenchmarkFabricTransfer|BenchmarkBackendOp|BenchmarkCacheChurn|BenchmarkCacheFsyncClean' -benchtime=1x
	$(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead' -benchtime=1x
	$(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=1x
	$(GO) test ./internal/trace -run XXX -bench BenchmarkParseJSONL -benchtime=1x
	$(GO) test ./internal/sim/ -run XXX -bench BenchmarkGroupWindow -benchtime=1x
	$(GO) test ./internal/traffic -run XXX -bench BenchmarkShardedTraffic -benchtime=1x

# The traffic-path rungs, recorded in BENCH_traffic.json by bench and rerun
# against that record by bench-diff. They run a fixed iteration count, so
# the kernel counts the traffic rungs report per op (starts/op, resumes/op,
# switches/op) are exact: the same b.N replays the same runs on any host.
TRAFFIC_BENCH = ( $(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead|BenchmarkShardedTraffic' -benchtime=100000x -benchmem ; \
	  $(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=100000x -benchmem )

# Regression gate over the recorded traffic-path benchmarks: a short fresh
# run of the hot-path benches diffed against the checked-in BENCH_traffic.json.
# Any increase in allocs/op or in a kernel count fails outright (both are
# exact and machine-independent — the real teeth of the gate); ns/op gets
# a generous tolerance because CI runners and dev machines differ. Tighten
# with BENCHDIFF_TOLERANCE=0.10 when comparing runs on one machine.
BENCHDIFF_TOLERANCE ?= 0.5
bench-diff:
	$(TRAFFIC_BENCH) | $(GO) run ./cmd/benchjson -o /tmp/storagesim-bench-diff.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCHDIFF_TOLERANCE) BENCH_traffic.json /tmp/storagesim-bench-diff.json

# The repository benchmark (bench/, its own Go module, so the root
# `go test ./...` skips it): its unit tests, which keep BENCHMARK.json and
# the paperfigs figure list in step with the program, then every workload
# once at 1/100 size.
bench-module:
	cd bench && $(GO) test ./...
	bash bench/run.sh -smoke

# Each parser gets $(FUZZTIME) of coverage-guided fuzzing, and the calendar
# queue is fuzzed differentially against the reference heap. Go allows one
# -fuzz target per invocation, so this is one short run per target. The
# group's message delivery is fuzzed against its exact-timing contract,
# event continuations against the waiting processes they replace, the
# page cache differentially against its naive reference model, and every
# backend's fault surface under random schedules.
fuzz-smoke:
	$(GO) test ./internal/units -run XXX -fuzz FuzzParseSize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/units -run XXX -fuzz FuzzParseDuration -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -run XXX -fuzz FuzzSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults/invariants -run XXX -fuzz FuzzFaultSurface -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run XXX -fuzz FuzzWheelVsHeap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run XXX -fuzz FuzzGroupDelivery -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run XXX -fuzz FuzzNotifyVsWait -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cache -run XXX -fuzz FuzzCacheVsReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/traffic -run XXX -fuzz FuzzTenantSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run XXX -fuzz FuzzParseTraceCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run XXX -fuzz FuzzParseTraceJSONL -fuzztime $(FUZZTIME)
	$(GO) test ./internal/configsearch -run XXX -fuzz FuzzParseSpace -fuzztime $(FUZZTIME)

# Engine + solver + parser + figure benchmark sweep, recorded
# machine-readably in BENCH_kernel.json. The pre-overhaul numbers it
# improved on are kept once, in BENCH_baseline.json. Kernel, cache and
# parser micro-benchmarks get stable 1s timings; the heavyweight
# end-to-end benches run a few fixed iterations.
bench:
	( $(GO) test . -run XXX -bench 'BenchmarkKernel|BenchmarkFabricTransfer|BenchmarkBackendOp|BenchmarkFairShareSolver|BenchmarkCache' -benchtime=1s -benchmem ; \
	  $(GO) test ./internal/sim/ -run XXX -bench BenchmarkFabricSolver -benchtime=3x -benchmem ; \
	  $(GO) test ./internal/sim/ -run XXX -bench BenchmarkGroupWindow -benchtime=1s -benchmem ; \
	  $(GO) test ./internal/trace -run XXX -bench BenchmarkParseJSONL -benchtime=1s -benchmem ; \
	  $(GO) test . -run XXX -bench 'BenchmarkConsistency|BenchmarkFig2a|BenchmarkFig3$$' -benchtime=1x -benchmem ) \
	| $(GO) run ./cmd/benchjson -o BENCH_kernel.json \
	    -note "post-overhaul kernel numbers; the pre-overhaul binary-heap scheduler's are in BENCH_baseline.json. KernelProcessSwitch is a process resuming itself (no channel operation), KernelHandoff a switch between two processes (one channel operation). FabricTransfer is one transfer over a two-pipe path with propagation latency, two processes alternating: its process parks once, the kernel starting the flow at the end of the latency. BackendOp is one op-level 1 MiB write and read through each backend's fsbase op path, client page cache off. CacheLookup is a page-cache hit and CacheChurn a 256 KiB sequential read over a working set four times the capacity (a miss, insert and eviction every fourth read), both through the open-addressed block table. CacheFsyncClean is the clean-file fsync of the per-file page-cache index (flat in the resident block count). GroupWindow is one barrier window of a two-shard group with one process wake-up per busy shard, both shards stepped in turn on whichever goroutine holds the baton; KernelHandoff and GroupWindow report the kernel's process starts, resumes and baton switches per op. ParseJSONL decodes a canonical 10k-event JSONL trace with the one-pass scanner. Consistency, Fig2a and Fig3 run each figure's independent simulations on GOMAXPROCS workers (two here), so they time wall clock across both cores. Recorded with go1.24.0 linux/amd64 on a 2-core Intel Xeon @2.10GHz shared container, default GOMAXPROCS"
	$(TRAFFIC_BENCH) | $(GO) run ./cmd/benchjson -o BENCH_traffic.json \
	    -note "open-loop traffic engine: cost per generated request (arrival draw, admission, spawn, transfer, sketch); ResilienceOverhead arms the full policy stack (deadline, retries, hedge, breaker, brownout) on an uncongested rig — the delta vs TrafficEngine is the layer's pure bookkeeping cost (the coordinator is a calendar continuation, so a request starts one process, its attempt). ShardedTraffic is the 8-rack sharded traffic engine per generated request. The three traffic rungs report the kernel's process starts, resumes and baton switches per op, exact at the fixed iteration count, which bench-diff gates like allocs/op. SurrogateScore is the what-if explorer's analytical predictor: cost of scoring one candidate configuration (the search layer assumes >=10k configs/sec). Recorded with go1.24.0 linux/amd64 on a 2-core Intel Xeon @2.10GHz shared container, default GOMAXPROCS"

# Lines of Go a change adds and removes, per package directory and in
# total, program files and _test.go files apart: the counts a CHANGES.md
# entry reports. BASE is the commit to diff the working tree against
# (default HEAD, the uncommitted change; pass the parent commit for a
# branch). New files count once git knows them (git add -N or -A).
BASE ?= HEAD
loc:
	@git diff --no-renames --numstat $(BASE) -- '*.go' | awk -F '\t' ' \
	function row(d) { return sprintf("%-34s %6s %6s %+7d %6s %6s %+7d", d, "+" a[d, "p"] + 0, "-" r[d, "p"] + 0, \
		a[d, "p"] - r[d, "p"], "+" a[d, "t"] + 0, "-" r[d, "t"] + 0, a[d, "t"] - r[d, "t"]) } \
	$$1 != "-" { d = $$3; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; k = $$3 ~ /_test\.go$$/ ? "t" : "p"; \
		a[d, k] += $$1; r[d, k] += $$2; a["total", k] += $$1; r["total", k] += $$2; dirs[d] = 1 } \
	END { printf "%-34s %6s %6s %7s %6s %6s %7s\n", "package", "prog+", "prog-", "net", "test+", "test-", "net"; \
		for (d in dirs) print row(d) | "sort"; close("sort"); print row("total") }'
