#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload serve-exact --seed 1 --seconds 15 --trace 0
#
# Build products and the Go caches stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local \
	GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
