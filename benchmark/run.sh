#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes —
# Go's build cache, the binary, the servers' data directories — stays
# under .bench_build in the checkout. The binary is exec'd, not `go
# run`, so a signal sent to this process reaches the benchmark itself
# and nothing outlives it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/zerber-benchmark" .)
exec "$out/zerber-benchmark" "$@"
