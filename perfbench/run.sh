#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-eds --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build products and the Go build cache stay
# under .bench_build/ in that root, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The commit stamps results measured in a git checkout; elsewhere the
# benchmark's source hash identifies the code.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
export PERFBENCH_COMMIT
go build -C "$here" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
