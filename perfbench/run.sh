#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload plan-mcf --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build output, Go cache and span file
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOWORK="$bench/go.work"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOMAXPROCS=2

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
