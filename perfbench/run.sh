#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload memlat-chase --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache) stays under .bench_build/ in
# the current directory, and the build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# No user Go configuration or GOFLAGS from outside the checkout.
export GOENV=off
export GOFLAGS=
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
