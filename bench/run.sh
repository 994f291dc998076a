#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run it from
# the root of the checkout:
#
#   bash bench/run.sh --workload dimension_sweep --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under one directory at the
# root of the checkout: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"

# Keep the Go toolchain's own state (build cache, module cache, scratch
# files, telemetry and env file) inside the checkout, and never reach for
# the network: the module has no dependencies outside the repository.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/windim-bench" .
exec "$out/windim-bench" -workdir "$out" "$@"
