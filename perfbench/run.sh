#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it with
# the arguments given, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload tall-tcp --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files all stay in
# .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
