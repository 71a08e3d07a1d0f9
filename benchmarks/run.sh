#!/usr/bin/env bash
# BENCHMARK.json's command: build wavemark from source and run it with the
# driver's arguments (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build and the run write stays inside this directory, under
# .build/ (which .gitignore names): the binary, the Go build cache (unless
# GOCACHE is already set), the toolchain's scratch and configuration
# directories, and the checkpoint files of the serve workloads.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/wavemark" ./wavemark
exec "$build/wavemark" -tmp "$build/tmp" "$@"
