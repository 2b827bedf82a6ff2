#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash pxperf/run.sh --workload rpc-pingpong --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/pxperf"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off
(cd "$root/pxperf" && go build -o "$out/pxperf" .) >&2
exec "$out/pxperf" -out "$out" "$@"
