#!/usr/bin/env bash
# Builds the fleet benchmark from the surrounding checkout and runs it:
#
#   bash fleetbench/run.sh --workload steady-10k --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# checkpoint state dirs) stays under .bench_build/ at the checkout root.
# Outside a checkout of the robustscale module the build fails, so the
# script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/fleetbench"
mkdir -p "$build/tmp" "$build/work"

# Keep the Go toolchain's caches, temp files and telemetry counters (kept
# under the user config dir) inside the build dir, and never reach out
# for a toolchain or module.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
export GOFLAGS="-mod=mod -buildvcs=false"

(cd "$root/fleetbench" && go build -o "$build/fleetbench" .)
exec "$build/fleetbench" -workdir "$build/work" "$@"
