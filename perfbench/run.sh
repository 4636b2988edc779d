#!/usr/bin/env bash
# Builds the benchmark harness and the swserver/swrouter binaries from
# this checkout's sources, then runs one workload. Run it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload search-short --seed 1 --seconds 28 --trace 0
#
# Build outputs, the Go caches and generated inputs all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

cd "$bench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/swserver" swvec/cmd/swserver
go build -o "$out/bin/swrouter" swvec/cmd/swrouter
cd "$root"

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
