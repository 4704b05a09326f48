#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repository root:
#   bash benchmark/run.sh --workload kv-node --seed 1 --seconds 12 --trace 0
# The Go build cache, module path, temporary files and the binary all stay
# under .bench_build in the checkout, so nothing outside it is written, and
# the build needs neither $HOME nor the network.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/rcoe-benchmark" ./benchmark
exec "$build/rcoe-benchmark" "$@"
