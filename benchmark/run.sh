#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's build directory and
# runs it with the given arguments. Everything the Go toolchain writes (build
# cache, temporary files, its own telemetry counters) stays inside the
# checkout; nothing is downloaded (the repository is stdlib-only).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $PWD is not a checkout of the repository (no go.mod, no internal/)" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/ldv-benchmark" ./benchmark
exec "$build/ldv-benchmark" "$@"
