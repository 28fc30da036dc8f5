#!/usr/bin/env bash
# Builds the benchmark and the shipped loggrepd from this checkout and runs
# the benchmark with the arguments given. Everything the build and the run
# write stays inside the checkout: build cache, binaries and temp files go
# to .bench_build/, traces and noise sets to bench/out/.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod" GOPROXY=off GOTOOLCHAIN=local
# The go command keeps its env file and telemetry counters in the user's
# config dir; give it one inside the checkout.
export XDG_CONFIG_HOME="$build/config"
cd "$bench"
t0=$(date +%s%N)
go build -o "$build/bin/bench" .
go build -o "$build/bin/loggrepd" loggrep/cmd/loggrepd
ms=$(( ($(date +%s%N) - t0) / 1000000 ))
export BENCH_BUILD_S="$((ms / 1000)).$(printf %03d $((ms % 1000)))"
export BENCH_LOGGREPD="$build/bin/loggrepd"
exec "$build/bin/bench" "$@"
