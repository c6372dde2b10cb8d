#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# file as the command. Everything the build writes — the Go build cache
# included — stays under .bench_build/ at the root of the checkout, which
# .gitignore lists, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/disco-bench" .
exec "$build/disco-bench" "$@"
