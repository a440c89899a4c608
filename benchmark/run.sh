#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given (see BENCHMARK.json: --workload --seed --seconds
# --trace). Everything the toolchain writes — build cache, module cache,
# the binary — lands under .bench_build in the checkout; a warm cache
# makes every build after the first a fraction of a second.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$build/ledgerbench" ./benchmark >&2
exec "$build/ledgerbench" "$@"
