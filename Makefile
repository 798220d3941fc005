# Development targets. `make check` is the repository gate: vet (gofmt
# included), build, the whole test suite (tier-1 and the CLI smoke), the
# race-enabled tests, the whole internal suite under both oracle kernel
# builds, a short fuzz pass over each input parser and differential, one
# iteration of each micro-benchmark (catches benchmark rot without paying
# for stable timings), the repository benchmark's own tests and smoke run,
# and last bench-diff, whose ns/op check depends on the host.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race oracle fuzz-smoke bench-smoke bench-module bench-diff bench

check: vet build test race oracle fuzz-smoke bench-smoke bench-module bench-diff

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... \
		./internal/faults/... ./internal/vast/... ./internal/repair/... \
		./internal/traffic/... ./internal/trace/... ./internal/fidelity/... \
		./internal/resilience/... ./internal/configsearch/... \
		./internal/surrogate/...
	$(GO) test -race -tags simreference ./internal/sim/

# The oracle builds: -tags simreference swaps the DES kernel's calendar
# queue for the seed's binary-heap scheduler, and -tags simsequential
# advances every sim.Group on one executor. Every internal test passes
# unchanged under both, so every golden (TestGolden), chaos digest and
# lockstep digest is byte-identical across the three kernel builds.
oracle:
	$(GO) test -tags simreference ./internal/...
	$(GO) test -tags simsequential ./internal/...

bench-smoke:
	$(GO) test ./internal/sim/ -run XXX -bench BenchmarkFabricSolver -benchtime=1x
	$(GO) test . -run XXX -bench 'BenchmarkKernel|BenchmarkCacheChurn|BenchmarkCacheFsyncClean' -benchtime=1x
	$(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead' -benchtime=1x
	$(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=1x
	$(GO) test ./internal/trace -run XXX -bench BenchmarkParseJSONL -benchtime=1x
	$(GO) test ./internal/sim/ -run XXX -bench BenchmarkGroupWindow -benchtime=1x -cpu=1,2
	$(GO) test ./internal/traffic -run XXX -bench BenchmarkParallelTraffic -benchtime=1x -cpu=1,2

# Regression gate over the recorded traffic-path benchmarks: a short fresh
# run of the hot-path benches diffed against the checked-in BENCH_traffic.json.
# Any allocs/op increase fails outright (allocation counts are exact and
# machine-independent — the real teeth of the gate); ns/op gets a generous
# tolerance because CI runners and dev machines differ. Tighten with
# BENCHDIFF_TOLERANCE=0.10 when comparing runs on one machine.
BENCHDIFF_TOLERANCE ?= 0.5
bench-diff:
	( $(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead' -benchtime=100000x -benchmem ; \
	  $(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=100000x -benchmem ) \
	| $(GO) run ./cmd/benchjson -o /tmp/storagesim-bench-diff.json
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
# page cache is fuzzed differentially against its naive reference model.
fuzz-smoke:
	$(GO) test ./internal/units -run XXX -fuzz FuzzParseSize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/units -run XXX -fuzz FuzzParseDuration -fuzztime $(FUZZTIME)
	$(GO) test ./internal/faults -run XXX -fuzz FuzzSchedule -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run XXX -fuzz FuzzWheelVsHeap -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run XXX -fuzz FuzzDomainsVsSequential -fuzztime $(FUZZTIME)
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
	( $(GO) test . -run XXX -bench 'BenchmarkKernel|BenchmarkFairShareSolver|BenchmarkCache' -benchtime=1s -benchmem ; \
	  $(GO) test ./internal/sim/ -run XXX -bench BenchmarkFabricSolver -benchtime=3x -benchmem ; \
	  $(GO) test ./internal/trace -run XXX -bench BenchmarkParseJSONL -benchtime=1s -benchmem ; \
	  $(GO) test . -run XXX -bench 'BenchmarkConsistency|BenchmarkFig2a|BenchmarkFig3$$' -benchtime=1x -benchmem ) \
	| $(GO) run ./cmd/benchjson -o BENCH_kernel.json \
	    -note "post-overhaul kernel numbers; the pre-overhaul binary-heap scheduler's are in BENCH_baseline.json. CacheLookup is a page-cache hit and CacheChurn a 256 KiB sequential read over a working set four times the capacity (a miss, insert and eviction every fourth read), both through the open-addressed block table. CacheFsyncClean is the clean-file fsync of the per-file page-cache index (flat in the resident block count). ParseJSONL decodes a canonical 10k-event JSONL trace with the one-pass scanner. Consistency, Fig2a and Fig3 run each figure's independent simulations on GOMAXPROCS workers (two here), so they time wall clock across both cores. Recorded with go1.24.0 linux/amd64 on a 2-core Intel Xeon @2.10GHz shared container, default GOMAXPROCS"
	( $(GO) test ./internal/traffic -run XXX -bench 'BenchmarkTrafficEngine|BenchmarkResilienceOverhead' -benchtime=2s -benchmem ; \
	  $(GO) test ./internal/surrogate -run XXX -bench BenchmarkSurrogateScore -benchtime=2s -benchmem ) \
	| $(GO) run ./cmd/benchjson -o BENCH_traffic.json \
	    -note "open-loop traffic engine: cost per generated request (arrival draw, admission, spawn, transfer, sketch); ResilienceOverhead arms the full policy stack (deadline, retries, hedge, breaker, brownout) on an uncongested rig — the delta vs TrafficEngine is the layer's pure bookkeeping cost (floor: two goroutine baton hand-offs per request, coordinator and attempt being separate processes). SurrogateScore is the what-if explorer's analytical predictor: cost of scoring one candidate configuration (the search layer assumes >=10k configs/sec). Recorded with go1.24.0 linux/amd64 on a 1-core Intel Xeon @2.10GHz container, default GOMAXPROCS"
	( $(GO) test ./internal/sim/ -run XXX -bench BenchmarkGroupWindow -benchtime=1s -benchmem -cpu=1,2 ; \
	  $(GO) test ./internal/traffic -run XXX -bench BenchmarkParallelTraffic -benchtime=2s -benchmem -cpu=1,2 ) \
	| $(GO) run ./cmd/benchjson -keep-cpu -o BENCH_parallel.json \
	    -note "domain-parallel rungs, executors = GOMAXPROCS (-cpu suffix). GroupWindow is the cost of one barrier window of a two-shard group with one process wake-up per busy shard: busy=1 runs in-line on the coordinator at any executor count, busy=2 on two executors commands the second one. ParallelTraffic is the 8-rack sharded traffic engine per request; its results are bit-identical across the sweep, only wall clock moves. Recorded with go1.24.0 linux/amd64 on a 2-core Intel Xeon @2.10GHz shared container"
