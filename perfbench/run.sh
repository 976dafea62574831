#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload sim-p2p-sweep --seed 1 --seconds 20 --trace 0
#
# Every build artifact, Go cache and temporary file stays under
# .bench_build/ in the checkout. The Go toolchain on PATH is used as is.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# A relative temp dir keeps Unix-socket paths short whatever the checkout path.
export TMPDIR=.bench_build/tmp
exec "$out/perfbench" "$@"
