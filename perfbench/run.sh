#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload analyze-n6 --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary live under .bench_build/
# in the working directory; run outputs go to .bench_out/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
