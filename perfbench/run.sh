#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload warm-sample --seed 1 --seconds 15 --trace 0
# Run it from the root of the checkout. Everything the build and the run
# write goes under .bench_build: the Go build cache, the go command's
# config and telemetry, the binary and the run's temporary stores.
# Nothing is fetched.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
