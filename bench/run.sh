#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments (see
# README.md). The binary, Go's build cache, GOPATH and telemetry
# counters, and the traces all go under .bench_build/ at the root of the
# checkout, so a run writes nothing outside it; only the first build in a
# checkout is slow.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds the repository it measures" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" -out "$build/out" "$@"
