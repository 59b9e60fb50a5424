#!/bin/bash
# Builds the benchmark with a Go build cache inside the checkout and runs
# it; arguments go to the benchmark (see README.md). This is the command
# BENCHMARK.json names; `go run ./bench` does the same with the user's own
# build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
