#!/usr/bin/env bash
# Builds the benchmark runner from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload syna-paper --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, binary) lands in .bench_build at
# the checkout root; nothing is read or written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; run from a full checkout of the repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
