#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. The binary, the
# Go build cache and the toolchain's per-user files (telemetry counters, the
# `go env -w` file) all live in .bench_build/ at the root of the checkout, so
# a run writes nothing outside it. bench/ is a module of its own that
# replaces the module "hyperline" with the checkout's root, so in a directory
# holding only bench/ and BENCHMARK.json the build fails and the script exits
# non-zero before printing any result.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" \
	XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTMPDIR="$PWD/.bench_build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o ../.bench_build/hyperbench .
exec .bench_build/hyperbench "$@"
