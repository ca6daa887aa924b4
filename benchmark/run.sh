#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# root of the checkout with the given arguments. Everything the build leaves
# behind stays in benchmark/.build; reports and traces go to benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/.build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local
mkdir -p "$build"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
