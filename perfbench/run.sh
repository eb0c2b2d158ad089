#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload hot_bus --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache
# and the traced run's spans stay under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off CGO_ENABLED=0

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
