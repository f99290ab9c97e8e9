#!/usr/bin/env bash
# Builds the benchmark from source and runs it once. Run from anywhere:
#
#   bash perfbench/run.sh --workload homepage --seed 1 --seconds 15 --trace 0
#
# The binary and Go's build cache go to .bench_build/ at the repository
# root, so a build touches nothing outside the checkout.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$bench")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
