#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given flags:
#
#   bash bench/run.sh --workload fleet-oneshot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, Go's config and telemetry, temporary files, the binary,
# span dumps, profiles) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/geneva-bench" .)
exec "$build/geneva-bench" "$@"
