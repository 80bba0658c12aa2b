#!/usr/bin/env bash
# Builds the benchmark and the memlife daemon from source into
# .bench_build, then runs the benchmark with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1-lenet --seed 1 --seconds 40 --trace 0
#
# Everything it writes (binaries, the Go build cache, daemon stores)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's own config and telemetry
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/memlife" ./cmd/memlife
exec "$out/perfbench" -memlife "$out/memlife" -workdir "$out" "$@"
