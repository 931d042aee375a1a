#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload docs-sparse --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ in the checkout, and the run writes only under .bench_out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
