#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the benchmark's command. Run it from the root of a checkout.
# Everything the build leaves behind (binary, Go build cache, temporary
# files) goes under .bench_build/ in the checkout, nothing under $HOME.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C benchmark -o "$build/hermes-benchmark" .
exec "$build/hermes-benchmark" "$@"
