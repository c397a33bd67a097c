GO ?= go

.PHONY: all build test race vet lint ci examplecheck benchcheck benchsmoke racecheck faultsmoke explorecheck resultscheck grandprixsmoke fuzz cover bench results

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint fails if gofmt would reformat any Go file in the tree (it lists
# them), prints the //dpml:allow audit table (every allowance with its
# recorded reason, for review on the CI log) and then runs the repo's
# eight invariant analyzers — six per-package passes (walltime,
# globalrand, maprange, waitcheck, floateq, prio) and two whole-module
# call-graph passes (lpown, sendpath) — over the module; it
# exits non-zero on any finding, including unused //dpml:allow lines and
# malformed or typo'd //dpml:owner classes.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/dpml-lint -suppressions ./...
	$(GO) run ./cmd/dpml-lint ./...

# The bench package's determinism matrices now cover ten designs; under
# the race detector on a small host that exceeds go test's default
# 10-minute per-package timeout, so give the suite an explicit budget.
race:
	$(GO) test -race -timeout 45m ./...

# ci is the gate: the invariant analyzers and go vet, the full test suite under the race
# detector (the sweep pool runs simulations on multiple goroutines, so
# -race exercises the parallel paths, not just the serial ones), the
# sharded-kernel race pass, the benchmark module's own checks, the
# fault-matrix smoke pass, the schedule-space exploration pass, the
# byte-for-byte regeneration of every committed table, the examples, one
# pass of every simulator micro-benchmark, a short fuzz pass over the
# text parsers, and the coverage summary.
ci: lint vet race racecheck benchcheck faultsmoke explorecheck resultscheck examplecheck benchsmoke grandprixsmoke fuzz cover

# examplecheck runs every program under examples/, the public dpml
# package's only consumers; each must exit zero.
examplecheck:
	for d in examples/*/; do $(GO) run ./$$d >/dev/null || exit 1; done

# benchcheck vets and tests the nested benchmark/ module, which the root
# `go test ./...` never enters: every workload at test size against its
# golden virtual timeline, the exact-integer oracle or the fig5 table,
# corrupted references failing every operation, and the metric names
# matching BENCHMARK.json.
benchcheck:
	cd benchmark && export GOWORK=off GOTOOLCHAIN=local GOFLAGS= && $(GO) vet ./... && $(GO) test ./...

# racecheck reruns the kernel, fabric, MPI, shared-memory, design and
# application test packages under the race detector with the event kernel
# split across four shards (the figure harness runs the fig11 app worlds
# sharded too). Plain `race` covers host-side parallelism (the sweep
# pool); this covers sim-side parallelism — window barriers, cross-shard
# outboxes, the net kernel and its flow fill, and the coroutine switches
# that shmseg's gather, result and copy waits exercise most — where a
# missing happens-before edge would corrupt virtual time itself. The
# race build also poisons recycled storage (segment accumulators at
# drain and pooled vectors at release), so the design package's
# conformance and golden timeline tests fail on any read of a buffer
# after its reuse point.
racecheck:
	DPML_SHARDS=4 $(GO) test -race -count=1 ./internal/sim/ ./internal/fabric/ ./internal/mpi/ ./internal/shmseg/ ./internal/core/ ./internal/apps/...

# faultsmoke runs the fault-injection and watchdog tests twice (-count=2):
# every fault class against a design (bench fault matrix), graceful SHArP
# degradation, and watchdog diagnostics (the kernel's verdicts at one and
# two shards included). The second run must reproduce the first bit for
# bit — seeded plans are deterministic.
faultsmoke:
	$(GO) test -count=2 -run 'Fault|Watchdog|Straggler|Sharp|Spec|Instantiate|Validate' \
		./internal/sim/ ./internal/faults/ ./internal/fabric/ ./internal/mpi/ ./internal/core/ ./internal/bench/

# explorecheck asserts every invariant on every reachable schedule, for
# every design on both the healthy and a faulted fabric: a systematic
# (DPOR-lite) pass at 16 ranks that must visit at least 100 distinct
# schedules per combination, a 32-schedule seeded pass, and a -race
# rerun of the exploration suite with the event kernel split across
# four shards (perturbed schedules must stay shard-invariant even under
# the race detector's scheduling noise).
explorecheck:
	$(GO) run ./cmd/dpml-verify -design all -faults ';all@0.7' -fault-seed 7 \
		-systematic -max-schedules 200 -min-distinct 100 -o /dev/null
	$(GO) run ./cmd/dpml-verify -design all -faults ';all@0.7' -fault-seed 7 \
		-schedules 32 -explore-seed 1 -o /dev/null
	DPML_SHARDS=4 $(GO) test -race -count=1 ./internal/explore/

# resultscheck regenerates every table in results/ at its documented
# settings (the ones `make results` writes) and compares each byte for
# byte with the committed file; plain `go test` checks only the fast
# ones. fig10's 10,240-rank job dominates the run.
resultscheck:
	DPML_FULL_RESULTS=1 $(GO) test -count=1 -timeout 120m -run '^TestFigureMatchesCommittedResults$$' ./internal/bench/

# grandprixsmoke runs the cross-family ranking figure at reduced scale
# (one 4x4 shape instead of 8x8 + 16x16): every design family must
# complete every (size, fault-class) heat on the seeded fabric.
grandprixsmoke:
	$(GO) run ./cmd/dpml-bench -figure grandprix -quick -iters 2 -warmup 1 -o /dev/null

# fuzz gives each fuzz target a short budget. Go runs one fuzz function
# per invocation, so each gets its own line; seeds in testdata/corpus
# still run under plain `go test`.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzWriteCSVRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzSpanStamping -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faults/
	$(GO) test -run=NONE -fuzz=FuzzParseDesign -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzAllowDirective -fuzztime=$(FUZZTIME) ./internal/lint/

# cover runs the suite with coverage and prints the per-package and total
# statement coverage summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# benchsmoke runs each micro-benchmark of the module once, so one that
# panics or fails fails ci; bench measures them.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench runs the module's micro-benchmarks.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# results regenerates every committed table in results/ (see results/README.md):
# every figure `dpml-bench -list` names at -iters 2, except the 10,240-rank
# fig10, which runs at -iters 1.
results:
	ids=$$($(GO) run ./cmd/dpml-bench -list) || exit 1; \
	for f in $$(echo "$$ids" | grep -vx fig10); do \
		$(GO) run ./cmd/dpml-bench -figure $$f -iters 2 -warmup 1 -o results/$$f.txt || exit 1; \
	done
	$(GO) run ./cmd/dpml-bench -figure fig10 -iters 1 -warmup 1 -o results/fig10.txt
