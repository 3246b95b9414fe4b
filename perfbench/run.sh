#!/usr/bin/env bash
# Builds the memnet benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload sweep-deep --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# binary, daemon stores, result records and traces) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/memnetbench" .)
exec "$out/memnetbench" -root "$root" "$@"
