#!/usr/bin/env bash
# Builds the benchmark and rkm-server from the checkout's source and runs the
# benchmark. Run from anywhere; everything it writes stays inside the
# checkout: build cache, binaries and scratch data under .bench_build/,
# traces and budget tables under benchmark/out/.
#
#   bash benchmark/run.sh --workload http-ingest --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh --seed 7            # every workload, both modes, tables
#   bash benchmark/run.sh --sets 2            # repeatability harness
#   bash benchmark/run.sh --smoke             # quick check of the benchmark itself
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/work"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS="-buildvcs=false" GOPROXY=off GOTOOLCHAIN=local

# The benchmark is its own module (benchmark/go.mod) that replaces the
# repository's module with the checkout, so both builds are from source.
(cd "$here" && go build -o "$build/bin/benchmark" .) >&2
(cd "$root" && go build -o "$build/bin/rkm-server" ./cmd/rkm-server) >&2

exec "$build/bin/benchmark" -root "$root" -server "$build/bin/rkm-server" -work "$build/work" "$@"
