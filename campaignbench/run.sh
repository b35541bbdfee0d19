#!/usr/bin/env bash
# Builds the campaign benchmark from source inside the checkout, then
# runs it with the given arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload curl-web --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and traced spans go to .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The benchmark needs only the standard library and this repository:
# never fetch a toolchain or a module.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

go -C campaignbench build -buildvcs=false -o "$out/campaignbench" .
exec "$out/campaignbench" "$@"
