#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload convolution|raycasting --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build artefact, cache and
# temporary file stays under .bench_build/ there; the toolchain never
# reaches the network (GOPROXY=off).
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
