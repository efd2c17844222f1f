#!/usr/bin/env bash
# Builds the replay benchmark from the checkout's sources and runs it:
#
#   bash replaybench/run.sh --workload paper-pair-1core --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact, cache and temp
# file stays under .bench_build/ in that root; nothing is fetched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/replaybench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "run.sh: no go.mod at the root; the engine sources are missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=mod
export GOWORK=off

bin="$build/replaybench"
(cd "$root/replaybench" && go build -o "$bin" .) >&2
exec "$bin" "$@"
