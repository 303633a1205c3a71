#!/usr/bin/env bash
# Builds bootesd and the end-to-end benchmark (e2ebench) from source, then
# runs the benchmark with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload cold-sparse --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the nodes' scratch directories stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bootesd" ./cmd/bootesd >&2
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/e2ebench" -bootesd "$out/bootesd" -workdir "$out" -commit "$commit" "$@"
