#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the program. Run from the repository root:
#
#   bash bench/run.sh --workload churn-dfly36 --seed 1 --seconds 8 --trace 0
#
# The go build cache, the go tool's own config directory and the binary
# all live under .bench_build/ in the current directory, so a run reads
# and writes nothing outside its checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$(dirname "${BASH_SOURCE[0]}")" && go build -o "$build/nuepipe" .)
exec "$build/nuepipe" "$@"
