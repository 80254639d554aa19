#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload udp-stopwait --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, temporary files) and every artifact the benchmark writes stays
# inside the checkout: .bench_build/ for the build, .bench_out/ for reports,
# span dumps and profiles.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
