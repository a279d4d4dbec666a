#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments. Everything it builds or writes stays under .bench_build
# in the current directory, which must be the repository root.
#
#   bash perfbench/run.sh --workload run-tage --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh steady --workload daemon-mix --runs 10 --seconds 25
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The go command's caches, temporary files and telemetry counters (kept
# under the user config directory) all go under $build too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@" --work "$build/work"
