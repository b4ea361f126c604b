#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash internal/bench/run.sh --workload clos16-sat --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the repository root: the Go build cache,
# temporary files, the binary, result.json, spans.jsonl and CPU profiles.
# The first run builds from a cold cache and takes longer.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file
# in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/internal/bench" && go build -o "$out/benchrun" ./cmd/benchrun)
exec "$out/benchrun" "$@"
