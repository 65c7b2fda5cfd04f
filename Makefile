GO ?= go
# bench pipes go test through benchjson; pipefail keeps a failing
# benchmark from exiting green.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec
# BENCHTIME=1x is the smoke setting (CI); use e.g. BENCHTIME=2s for
# real measurements.
BENCHTIME ?= 1x

.PHONY: all check fmt vet build test race race-cache fuzz-smoke bench bench-detect bench-discovery bench-append bench-build bench-dc bench-repair bench-spill bench-smoke bench-compare bench-all run-daemon

all: check

# check is the CI gate: formatting, vet, build, and the race-enabled
# test suite (the engine/server concurrency tests rely on -race).
check: fmt vet build race race-cache

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-cache re-runs the packages that share PLI caches across
# goroutines (discovery through engine sessions, concurrent detection,
# append-time PLI advancement through incremental repair, the
# TID-range-sharded builds racing appends in
# TestShardedCacheConcurrentBuildAppend, DC detection racing
# appends and discovery on one shared session cache in
# TestConcurrentDCDetectAppendDiscover, and tiered-storage demotions
# and mmap page-ins racing dirty appends with pending cell patches in
# TestSpillDemotePageInConcurrent and
# TestConcurrentSpillDemoteDirtyAppend, and in internal/server a cluster
# detect overtaken by an append between its scatter and its cache store
# in TestClusterDetectOvertakenByAppend, and detects, DC detects and
# appends sharing one coordinator's held shard replies and merge memos
# in TestClusterConcurrentDetectDCAppend) with a higher count, so
# cache-sharing races surface on every push. GOMAXPROCS is forced up so
# the scheduler actually interleaves the readers even on small CI boxes
# — the Get/GetDelta compaction race stayed hidden on a 1-core host
# until the fan-out was pinned.
race-cache:
	GOMAXPROCS=8 $(GO) test -race -count=2 ./internal/relation/ ./internal/discovery/ ./internal/engine/ ./internal/repair/ ./internal/dc/ ./internal/server/ ./internal/wal/

# fuzz-smoke gives every Fuzz* target of the root module ten seconds of
# mutation (a plain `go test` only replays the seeds). Targets are found
# by name, so a new one is covered the day it is written.
# -fuzzminimizetime: the shard-protocol seeds are several KB and the
# default minimizer would spend the whole window on one input.
fuzz-smoke:
	grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' cmd internal | while IFS=: read -r file fn; do \
		$(GO) test "./$$(dirname "$$file")" -run '^$$' -fuzz "^$${fn#func }\$$" -fuzztime 10s -fuzzminimizetime 2s || exit 1; \
	done

# bench runs the perf-trajectory benchmarks CI archives on every run:
# detection (E1 scale sweep, E13 parallel detector) into
# BENCH_detect.json, the discovery lattice walk (cold FDs, warm
# session) into BENCH_discovery.json, the streaming append→detect
# path (incremental PLI advance vs invalidate-and-rebuild) into
# BENCH_append.json, cold sharded index construction (serial vs
# TID-range-parallel counting sorts) into BENCH_build.json, and
# denial-constraint detection (PLI-partitioned dominance sweep vs
# all-pairs naive) into BENCH_dc.json, and the dirty streaming
# append→repair→detect path (per-cell PLI patching vs
# invalidate-and-rebuild, on a chained constraint set where repair
# writes hit a cached detection partition) into BENCH_repair.json, and
# tiered index storage (warm 1M-row detection under a budget of an
# eighth of the resident working set, rebuild-free via segment-file
# demotions and mmap page-ins) into BENCH_spill.json.
bench: bench-detect bench-discovery bench-append bench-build bench-dc bench-repair bench-spill

bench-detect:
	$(GO) test -bench='E1DetectScaleTuples|E13ParallelDetect' -benchmem -benchtime=$(BENCHTIME) -run '^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_detect.json

bench-discovery:
	$(GO) test -bench='DiscoveryFDs|DiscoveryWarmSession' -benchmem -benchtime=$(BENCHTIME) -run '^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_discovery.json

bench-append:
	$(GO) test -bench='AppendDetect' -benchmem -benchtime=$(BENCHTIME) -run '^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_append.json

bench-build:
	$(GO) test -bench='ShardedBuild' -benchmem -benchtime=$(BENCHTIME) -run '^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_build.json

bench-dc:
	$(GO) test -bench='DCDetect|DCRelax' -benchmem -benchtime=$(BENCHTIME) -run '^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_dc.json

bench-repair:
	$(GO) test -bench='RepairPatch' -benchmem -benchtime=$(BENCHTIME) -run '^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_repair.json

bench-spill:
	$(GO) test -bench='SpillDetect' -benchmem -benchtime=$(BENCHTIME) -run '^$$' . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_spill.json

# bench-smoke runs the service benchmark BENCHMARK.json declares
# (bench/, a module of its own) for three seconds per workload and then
# that module's own vet and tests, so a root-module change that breaks
# the benchmark's build or one of its output checks — cluster ≡ single
# process, repair leaves nothing, kill -9 loses no acked append — fails
# here. The traced serve-mixed run adds the ladder's add-up check: the
# in-process server.read / detect / append spans against the self times
# of the twin rungs under them; the traced cold-batch run adds the
# ladder's repair rung: repair.Batch on the twin relation, then a
# detection that must find nothing; the traced cluster-mixed run adds
# the merge probe (per-CFD ShardGroups + cfd.MergeShards over real
# loopback HTTP) and the cluster ≡ single-process output check under
# tracing. Correctness only: a shared runner cannot hold a timing bound.
# Measure with `bash bench/run.sh` and `make bench-compare`.
bench-smoke:
	for w in serve-mixed ingest-durable cold-batch cluster-mixed; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0; \
	done
	for w in serve-mixed cold-batch cluster-mixed; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1; \
	done
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-compare applies BENCHMARK.json's bounds to two files of run
# records (`bash bench/run.sh ... --out FILE` appends one per run; A the
# parent's, B the change's): ok / worse / unresolved per workload and
# end-to-end metric.
bench-compare:
	$(GO) run -C bench . compare $(abspath $(A)) $(abspath $(B))

# bench-all smoke-runs every benchmark once.
bench-all:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

run-daemon:
	$(GO) run ./cmd/semandaqd -preload 10000
