#!/usr/bin/env bash
# Entry point of the benchmark (the command of BENCHMARK.json): builds
# the bench program from source and runs it from the checkout's root
# with the arguments given. `bash bench/run.sh test` runs the fast
# tests of this module instead. Everything written stays inside this
# directory, under bench/.build/ (Go caches, binaries, temp data) and
# bench/out/ (daemon logs, traces); both are ignored by git.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# The go command keeps its telemetry counters under the user's config dir.
export XDG_CONFIG_HOME="$build/config"
cd "$here"
if [ "${1:-}" = "test" ]; then
	exec go test ./...
fi
go build -o "$build/unibench" .
cd "$root"
exec "$build/unibench" "$@"
