#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, for example
#
#   bash benchmark/run.sh --workload allreduce-10k --seed 1 --seconds 12 --trace 0
#
# The binary, Go's build cache and its temporary files stay in
# .bench_build/ at the root of the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$here"
go build -o "$build/dpml-benchmark" .
exec "$build/dpml-benchmark" "$@"
