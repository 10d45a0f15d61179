#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the Go
# toolchain and the benchmark write inside the build directory of the
# checkout ($CARGO_TARGET_DIR, default .bench_build).
#
# Run from the repository root:
#
#	bash benchmark/run.sh --workload paper-matrix --seed 24301 --seconds 20 --trace 0
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/work"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" -work "$build/work" "$@"
