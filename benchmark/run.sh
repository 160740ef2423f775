#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build and the run leave behind
# (Go build cache, binaries, scratch files) stays under .bench_build/ in
# the checkout; benchmark/out/ receives the span files of traced runs.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOWORK=off

# A checkout without the program's source (go.mod, internal/, cmd/)
# cannot build, and must not print numbers.
go build -C benchmark -o "$build/bin/pprl-benchmark" . >&2
exec "$build/bin/pprl-benchmark" "$@"
