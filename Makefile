# Developer entry points. `make ci` is the gate: build, vet, the full
# test suite under the Go race detector (the kernel-execution engine and
# the bench harness are concurrent; -race keeps them honest), a
# benchmark smoke run diffed against the committed baseline, a short
# fuzz pass over the front end, the fault-model output invariant
# checked across the benchmark suite, the analysis and service gates,
# and the host-time benchmark's self-tests.

GO ?= go

.PHONY: all build vet fmtcheck test race bench benchsmoke baseline baseline-async overlap fuzzsmoke resilience critpath runlog servegate soak perfbench-selftest ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Host-side engine speedup (workers=1 vs workers=N), then the
# interpreter's layer benchmarks: dispatch (int/float arithmetic,
# branches, calls) and the memory path (inline-cache hits, generation-
# bump misses, inspector recording, kernel allocas), five samples each.
bench:
	$(GO) test -bench 'BenchmarkEngine$$' -benchtime 3x ./internal/bench/
	$(GO) test -run NONE -bench 'Dispatch|Memory' -benchtime 5x -count 5 ./internal/interp/

# Run the full suite and fail on any >25% simulated-wall regression
# against the committed baseline. The simulation is deterministic, so a
# no-op change diffs at exactly +0.00%.
benchsmoke:
	$(GO) run ./cmd/cgcmbench -q -compare BENCH_0.json -threshold 0.25

# Re-freeze the committed baseline (after an intentional perf change).
baseline:
	$(GO) run ./cmd/cgcmbench -q -baseline BENCH_0.json

# Communication-overlap gate: every Comm.-limited program must improve
# under -async with bit-identical output and nonzero overlapped bytes,
# and the async walls must match the committed BENCH_1.json baseline.
overlap:
	$(GO) run ./cmd/cgcmbench -overlap-gate -q
	$(GO) run ./cmd/cgcmbench -q -async -compare BENCH_1.json -threshold 0.25

# Re-freeze the async baseline (after an intentional perf change).
baseline-async:
	$(GO) run ./cmd/cgcmbench -q -async -baseline BENCH_1.json

# Short native-fuzz pass over the mini-C front end and the full compile
# pipeline: seeds always run; a few seconds of mutation catches easy
# panics without slowing the gate much.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime 10s ./internal/minic/parser/
	$(GO) test -run=NONE -fuzz=FuzzCompile -fuzztime 10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzServerRequest -fuzztime 10s ./internal/server/

# Fault-model invariant across the whole suite: transient faults plus a
# finite device must leave every program's output bit-identical.
resilience:
	$(GO) run ./cmd/cgcmbench -q -faults 'seed=7,htod=0.2,dtoh=0.2,alloc=0.1' -gpu-mem 262144

# Critical-path gate across the whole suite, sync and async: the path
# must tile [0, Stats.Wall] exactly, the limiting factor and what-if
# predictions must be bit-identical across engine worker counts, and
# the zero-comm replay must never predict above the measured wall.
critpath:
	$(GO) run ./cmd/cgcmstat -gate

# Run-record gate: sweep the suite twice (sync, async) into a throwaway
# store, then require -regress attribution between each program's two
# records to sum exactly to the wall delta and the HTML report to be
# byte-deterministic across exports.
runlog:
	$(GO) run ./cmd/cgcmstat -runlog-gate

# Service-mode contention gate: every bench program's response payload
# from a loaded multi-tenant cgcmd — under concurrency, injected faults,
# tenant quotas, cold and warm compilation cache — must be bit-identical
# to a solo in-process run of the same request.
servegate:
	$(GO) run ./cmd/cgcmd -gate

# Full-scale service soak: ≥1000 concurrent clients across ≥8 tenants
# under the race detector, mixing cache hits/misses, deadline expiries,
# quota evictions, and the standard fault plan. The short-mode soak runs
# inside `make race` / `make ci`; this is the heavyweight version.
soak:
	CGCM_SOAK=1 $(GO) test -race -timeout 30m -run 'TestSoak' -v ./internal/server/

# Self-tests of the host-time benchmark (perfbench/, a module of its
# own): percentile rule, schedules, checks, and that its metric
# catalogue matches BENCHMARK.json.
perfbench-selftest:
	$(GO) -C perfbench test ./...

ci: build fmtcheck vet race benchsmoke overlap fuzzsmoke resilience critpath runlog servegate perfbench-selftest
