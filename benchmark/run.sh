#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload serve_small --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, temporary files, the binary, span
# files of traced runs) stays under .bench_build/ at the root of the checkout.
# The first run in a fresh checkout compiles the standard library into that
# cache; later runs only relink what changed.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
