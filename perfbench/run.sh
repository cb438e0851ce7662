#!/usr/bin/env bash
# Builds the benchmark and cmd/filterd from this checkout, then runs the
# benchmark with the arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload study-clean --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, Go's build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/filterd" ./cmd/filterd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -filterd "$out/filterd" -work "$out/work" "$@"
