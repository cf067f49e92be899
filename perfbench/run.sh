#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mix-sim --seed 3 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, trace files) stays
# under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= XDG_CONFIG_HOME="$out/config"
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
