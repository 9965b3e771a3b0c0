#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's source and runs one
# workload with the given flags, e.g.
#
#   bash bench/run.sh --workload cycle-r16 --seed 1 --seconds 15 --trace 0
#
# Everything the Go tool writes (build cache, module cache, its config and
# telemetry files) stays under .bench_build in the checkout, and the tool
# never fetches anything. The first run compiles from scratch; later runs
# reuse the cache.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C bench build -o "$out/sldfbench" ./sldfbench
exec "$out/sldfbench" "$@"
