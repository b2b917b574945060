#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload strict-bulk --seed 0 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so the benchmark reads and
# writes nothing outside the checkout it runs in.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/host" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (simulator sources not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=

go -C "$root/perfbench" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
