#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given; this is the
# command of BENCHMARK.json. Everything the build writes goes under
# .bench_build/ at the root of the checkout, the Go build cache included, so
# the first run in a fresh checkout compiles the standard library too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/perigee-benchmark" .
exec "$build/perigee-benchmark" "$@"
