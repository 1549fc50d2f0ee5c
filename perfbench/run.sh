#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the root of the checkout; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload bfs-ooc --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, the databases and any trace live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS= \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
