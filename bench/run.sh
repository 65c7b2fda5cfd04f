#!/bin/bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash bench/run.sh --workload serve-mixed --seed 1 --seconds 12 --trace 0
#
# It builds the benchmark and cmd/semandaqd from the checkout's source
# and runs the benchmark. Everything the Go toolchain writes (build
# cache, module cache, temp files, its own config) is pointed into
# .bench_build/ inside the checkout, for the two builds only: the
# benchmark and the daemons it starts see the caller's environment
# unchanged.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
gobuild() {
	env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= go build "$@"
}
gobuild -C "$root/bench" -o "$build/bench" .
gobuild -C "$root" -o "$build/semandaqd" ./cmd/semandaqd
exec "$build/bench" -root "$root" -bin "$build/semandaqd" "$@"
