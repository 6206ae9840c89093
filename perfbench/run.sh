#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from anywhere:
#
#   bash perfbench/run.sh --workload session-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory inside the checkout: $CARGO_TARGET_DIR when set, else
# .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home" "$build/perfbench"
# The go command keeps caches, temporary files and telemetry under these.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
cd "$root"
exec "$build/perfbench/perfbench" --work "$build/perfbench" "$@"
