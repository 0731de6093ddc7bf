#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given. Everything the build and the run write stays inside the
# checkout: the Go caches and the binary under .bench_build/, span files
# and scratch state under benchmark/out/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export GOPATH="${GOPATH:-$build/gopath}"

go build -o "$build/fcma-benchmark" ./benchmark
exec "$build/fcma-benchmark" "$@"
