#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload paper_full --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, temporary files and the
# binary stay under .bench_build/ in the current directory, so nothing is
# written outside the checkout.
set -euo pipefail
export PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# Keep the Go toolchain's caches and configuration inside the checkout, and
# keep the environment from changing what the layers do.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
unset TRAPNULL_VERIFY TRAPNULL_ENGINE TRAPNULL_COMPILE_CACHE

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
