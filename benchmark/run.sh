#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build leaves behind — the binary, Go's build cache, its
# temporary files — goes under .bench_build/ in the current directory (the
# checkout root), so a run reads and writes nothing outside the checkout.
set -euo pipefail
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(pwd)/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$src" && go build -o "$build/dcdo-benchmark" .)
exec "$build/dcdo-benchmark" "$@"
