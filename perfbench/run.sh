#!/usr/bin/env bash
# Builds the benchmark program and the fp8bench worker binary from the
# checkout it is run in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-cnn --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/fp8bench" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/fp8bench and perfbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# Keep the Go toolchain's caches and temporary files inside the checkout
# and never reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
unset FP8_FAULTS

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/fp8bench" fp8quant/cmd/fp8bench
) >&2

exec "$out/bin/perfbench" -fp8bench "$out/bin/fp8bench" -work "$out/perfbench" "$@"
