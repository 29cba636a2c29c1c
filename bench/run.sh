#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (Go build cache, temporaries, the binary) stays in .bench_build/ at the
# root of the checkout; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here/_src" && go build -o "$build/demosmp-bench" .)
cd "$root"
exec "$build/demosmp-bench" "$@"
