GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all check fmt vet build test race race-cache fuzz-smoke loc bench bench-smoke bench-compare bench-all run-daemon

all: check

# check is the CI gate: formatting, vet, build, and the race-enabled
# test suite (the engine/server concurrency tests rely on -race).
check: fmt vet build race race-cache

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet covers bench/ too: it is a module of its own, so a root-only
# change that breaks the benchmark's build would pass every root step.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-cache re-runs the packages that share PLI caches across
# goroutines (discovery through engine sessions, concurrent detection,
# append-time PLI advancement through incremental repair, cold builds
# and refinements racing appends in
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

# loc prints the non-test Go lines (wc -l) of every package of the root
# module and of bench/, each module with its total: the number every
# simplicity PR and ROADMAP re-anchor quotes.
loc:
	@for mod in . bench; do \
		find $$mod \( -path ./bench -o -name '.?*' \) -prune -o -name '*.go' ! -name '*_test.go' -print \
		| xargs wc -l | grep -v ' total$$' \
		| awk -v mod=$$mod '{ d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  %s (module)\n", t, mod }'; \
	done

# bench runs the service benchmark BENCHMARK.json declares: all four
# workloads, end to end and traced (see bench/README.md).
bench:
	bash bench/run.sh

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

# bench-all runs every testing.B of the root module once, so their
# output checks (b.Fatal on a diverging or rebuilding path) run in CI.
bench-all:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

run-daemon:
	$(GO) run ./cmd/semandaqd -preload 10000
