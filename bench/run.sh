#!/usr/bin/env bash
# Entry point of the benchmark (the command in BENCHMARK.json): builds
# bench/e2e from the checkout's own source and runs it with the given
# arguments. Everything the build writes stays inside the checkout,
# under .bench_build; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/e2e" ./e2e
exec "$build/e2e" "$@"
