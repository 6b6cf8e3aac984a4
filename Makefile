# Tier-1 verification plus the race-clean CI gate for the parallel
# experiment runner. `make check` is the full pre-merge pipeline.

GO ?= go

# Hot-path packages whose Go benchmarks bench-smoke keeps compiling and
# running (the repo's benchmark proper is bench/hybridbench, see bench-pair).
BENCH_PKGS = ./internal/sim ./internal/lock ./internal/cpu ./internal/hybrid ./internal/exec ./internal/netx

# Fuzz targets of the correctness harness (DESIGN.md §11); FUZZTIME bounds
# each target's smoke budget.
FUZZTIME ?= 10s
FUZZ_TARGETS = FuzzHeap:./internal/sim FuzzShardSync:./internal/sim FuzzLock:./internal/lock FuzzDecideMemo:./internal/routing FuzzConfig:./internal/simtest FuzzWorkloadConfig:./internal/simtest

.PHONY: all build test vet staticcheck race race-stress smoke bench-smoke bench-selftest alloc-gate output-gate simtest fuzz-smoke cluster-smoke check bench-pair figures

all: build test

# Tests always run shuffled: any hidden ordering dependence between tests
# is a bug, and a fixed execution order would mask it.
test:
	$(GO) test -shuffle=on ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Staticcheck is optional locally (the target skips with a hint when the
# binary is absent) but enforced in CI, which installs a pinned version.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

# The parallel runner fans concurrent engines across goroutines; the race
# detector must stay clean over the whole tree.
race:
	$(GO) test -race -shuffle=on ./...

# The correctness harness under the race detector: metamorphic relations,
# conservation laws, the model↔sim differential gate, and the
# sequential↔parallel bit-exactness matrix of the sharded core, all fanned
# through the parallel pool — so this doubles as a concurrency test.
# Shuffled so hidden ordering dependence between harness tests is a failure.
simtest:
	$(GO) test -race -shuffle=on -v -run 'Test' ./internal/simtest/

# Saturated 64-site run through the sharded parallel core under the race
# detector, with the Group's 10s deadlock watchdog armed: any data race or
# synchronization hang in the shard workers fails loudly here.
race-stress:
	$(GO) test -race -count=1 -run 'TestParallelRaceStress|TestParallelSequentialDifferential' ./internal/simtest/
	$(GO) test -race -count=1 ./internal/sim/ ./internal/hybrid/

# Short native-fuzzing pass over every fuzz target. Each target gets
# FUZZTIME of mutation on top of replaying the committed corpus; a crasher
# is reported with its corpus file for replay.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "--- fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -fuzz "^$$name$$" -fuzztime $(FUZZTIME) -run '^$$' $$pkg; \
	done

# Live loopback cluster gate (DESIGN.md §13), two levels. In-process:
# 1 central + 2 sites under one test binary, asserting commits on both
# routing paths and transaction conservation from each node's metrics
# registry. Process-level: builds hybridd + hybridload, boots 1 central +
# 4 sites as real processes, drives a paced load, scrapes every node's
# /metrics and asserts conservation (generated == completed + replies +
# in-flight per site, ship_arrived == commits + in_system at central, sums
# balancing cluster-wide), requires clean SIGTERM shutdowns with counter
# lines from every node, then merges the per-process span traces and
# requires a cross-process span tree.
cluster-smoke:
	$(GO) test -count=1 -run 'TestClusterSmoke' ./internal/cluster/
	$(GO) test -count=1 -run 'TestClusterProcessSmoke' ./cmd/hybridd/

# Short-sweep smoke run of the figure pipeline: replicated, fanned across
# 4 workers, exercising seeds, aggregation, and table rendering end to end.
smoke:
	$(GO) run ./cmd/figures -quick -fig 4.2 -reps 2 -parallel 4

# One-iteration benchmark pass: keeps every benchmark compiling and running
# without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' $(BENCH_PKGS)

# The benchmark's own gate. bench/hybridbench is a nested module the root
# `go test ./...` never reaches, and it compiles against internal/...: its
# tests, then its quick run — pinned result digests for seeds 1-2 and the
# simulator and live conservation checks — catch a change that breaks it or
# moves a simulated bit.
bench-selftest:
	cd bench/hybridbench && $(GO) vet ./... && $(GO) test ./...
	bash bench/hybridbench/run.sh --quick

# Allocation gate: allocs_per_txn on the three simulator workloads is exactly
# reproducible at a fixed seed, and live-wire's allocs_per_txn and peak_rss_mb
# nearly so, so one run of the merge-base and one of the working tree decide
# whether a change allocates — or, live, retains — more than BENCHMARK.json's
# bounds allow (scripts/allocgate.sh; about four minutes).
alloc-gate:
	bash scripts/allocgate.sh

# Output gate: the CLI outputs of the experiment code — every figure table
# and CSV, max-throughput, architectures, validation, replicated and sharded
# hybridsim, a manifest summary and the root benchmarks' custom metrics —
# must equal the merge-base's byte for byte, a second same-seed run of the
# working tree, and (hybridsim -shards 4) the sequential run
# (scripts/outputgate.sh; about a minute).
output-gate:
	bash scripts/outputgate.sh

check: vet staticcheck race simtest race-stress smoke bench-smoke bench-selftest alloc-gate output-gate fuzz-smoke cluster-smoke

# Paired parent/change runs of one bench/hybridbench workload in this session
# (merge-base exported to a scratch directory, alternating order, fresh
# seeds), with the choosing-metrics verdict: make bench-pair W=sim-paper.
W ?= sim-paper
PAIRS ?= 10
bench-pair:
	bash scripts/benchpair.sh $(W) $(PAIRS)

# Full-length regeneration of every figure (about 5 minutes serially; use
# REPS/PARALLEL to replicate and fan out, e.g. make figures REPS=5).
REPS ?= 1
PARALLEL ?= 0
figures:
	$(GO) run ./cmd/figures -reps $(REPS) -parallel $(PARALLEL)
