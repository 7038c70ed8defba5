#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload lookup-sharded --seed 1 --seconds 20 --trace 0
#
# Every build product and toolchain cache stays under .bench_build in
# the checkout, and module downloads are disabled: the benchmark and the
# module it drives build from source alone.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
