#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments: bash benchmark/run.sh --workload paper-mix --seed 1 --trace 0
# The Go build cache, temp files and binary all live under .bench_build/
# at the root of the checkout, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
cd "$here"
go build -o "$build/tscds-benchmark" .
exec "$build/tscds-benchmark" "$@"
