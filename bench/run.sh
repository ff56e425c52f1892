#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root with
# the arguments given, e.g.
#
#   bash bench/run.sh --workload steady-hit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries, daemon
# logs, temporary snapshot and WAL directories, span files) stays under
# .bench_build in the checkout. Nothing is fetched: the toolchain is the
# local one and the module proxy is off.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
