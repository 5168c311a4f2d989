#!/usr/bin/env bash
# Builds topkd and the benchmark harness from this tree, then runs the
# harness from the tree's root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload query-warm --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and output stays in .bench_build at the
# root. topkd is rebuilt on every invocation; the compile cache is keyed
# by source content, so it never hands back a stale binary.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/topkd" ]; then
	echo "perfbench: $root holds no topkagg tree to build" >&2
	exit 1
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
rm -f "$out/topkd" "$out/perfbench"
(cd "$root" && go build -o "$out/topkd" ./cmd/topkd)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -topkd "$out/topkd" -out "$out" "$@"
