#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash conbench/run.sh --workload chain-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files, the binary) stays under .bench_build/
# in the repository root. Without the repository's own sources next to
# conbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/conbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (conbench/go.mod not found)" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "run.sh: the conman module (go.mod) is not next to conbench/; nothing to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/conbench" && go build -o "$out/conbench" .)
exec "$out/conbench" --spans-dir "$out" "$@"
