#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash bench/run.sh --workload full-int --seed 1 --seconds 12 --trace 0
# Run from the repository root. Everything the build and the runs leave
# behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The module needs nothing but the repository (bench/go.mod replaces
# loosesim with ../), so the build never fetches anything.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$out/loosebench" .
exec "$out/loosebench" "$@"
