#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Every build and run artifact (Go
# build cache, binary, scratch files, span dumps) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The go command's cache, module path and local telemetry (under the
# user config directory) all land in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/segscale-bench" .)
exec "$out/segscale-bench" "$@"
