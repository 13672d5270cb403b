#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run in, then
# runs it with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload tree --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
