#!/usr/bin/env bash
# Builds repairctl and the benchmark from the checkout and runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh -diff before.jsonl after.jsonl
#
# Everything the build and the runs leave behind stays in .bench_build
# and .bench_run under the root.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/repairctl" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a repaircount checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= XDG_CONFIG_HOME="$out/config"
go build -o "$out/repairctl" ./cmd/repairctl
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -bin "$out/repairctl" "$@"
