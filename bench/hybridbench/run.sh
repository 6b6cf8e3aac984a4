#!/usr/bin/env bash
# Builds hybridbench from source and runs it with the given arguments. This
# is the command BENCHMARK.json names; the acceptance driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays inside the checkout: the Go
# build cache and temporary files go to .bench_build at the repository root,
# traces and results to bench/hybridbench/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local
export HYBRIDBENCH_DIR="$here"

# The module in this directory imports hybriddb/internal/... through a
# replace directive pointing at the repository root, so the build fails
# (and the script exits non-zero, printing no result) anywhere the
# repository's sources are absent.
(cd "$here" && go build -o "$build/hybridbench" .)
exec "$build/hybridbench" "$@"
