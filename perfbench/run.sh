#!/usr/bin/env bash
# Builds the repository benchmark from the source tree it sits in and runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, temp files, config) stays
# under .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
