#!/usr/bin/env bash
# The benchmark's entry point, run from the root of a checkout:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash bench/run.sh                      # the whole suite -> bench/out/suite.json
#   bash bench/run.sh compare A.json B.json
#
# It builds the benchmark (and, through it, cmd/anykeyserver) from source
# into .bench_build/ and keeps every file the Go toolchain writes inside the
# checkout. Without the repository's go.mod the build fails and so does this.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" # the toolchain's telemetry directory
# Telemetry off: in its default "local" mode the first go command to see a
# fresh telemetry directory starts a sidecar process that outlives it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
