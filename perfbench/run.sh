#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload gnmf --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact and cache goes to
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
