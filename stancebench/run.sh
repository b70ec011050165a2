#!/usr/bin/env bash
# Builds the STANCE benchmark from source and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash stancebench/run.sh --workload steady --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span files go to .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/stancebench" .) >&2
exec "$out/stancebench" "$@"
