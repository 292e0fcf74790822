#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload eval-sync --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file a run writes live under
# .bench_build/ in the repository root, so a run touches nothing outside
# its checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep every file the go command writes (build cache, module cache,
# temporary work directories, telemetry) inside the checkout, and never
# fetch a toolchain.
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
# Stamp the commit into the binary only where git can report it.
if git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	export GOFLAGS=-buildvcs=auto
else
	export GOFLAGS=-buildvcs=false
fi

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -scratch "$out" "$@"
