#!/usr/bin/env bash
# run.sh — build the benchmark and run it, keeping every byte the toolchain
# and the benchmark write inside the checkout (under .bench_build/).
#
#   bash bench/run.sh --workload srv_read_hot --seed 1 --seconds 10 --trace 0
#
# With no --workload it runs the whole suite; see bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
# The build needs nothing but the checkout and the Go toolchain: no C
# compiler, no network, no version control, no settings of the caller's.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off CGO_ENABLED=0
echo off >"$build/config/go/telemetry/mode"
(cd "$root/bench" && go build -o "$build/turbobp-bench" .)
cd "$root"
exec "$build/turbobp-bench" "$@"
