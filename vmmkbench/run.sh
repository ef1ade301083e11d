#!/usr/bin/env bash
# Builds the vmmk benchmark from this checkout's sources and runs it.
#
#   bash vmmkbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write goes under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so nothing is written
# outside the checkout. Build output goes to standard error; the last line
# of standard output is the benchmark's JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/vmmkbench
mkdir -p "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/vmmkbench" && go build -o "$out/vmmkbench" .) >&2
exec "$out/vmmkbench" -out "$out" "$@"
