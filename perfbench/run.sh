#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout's sources and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload lookup-u64 --seed 1 --seconds 8 --trace 0
#
# Every build artifact, the Go build cache and the trace files stay under
# .bench_build/ in the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero without a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
