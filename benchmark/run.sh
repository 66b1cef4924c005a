#!/usr/bin/env bash
# Builds the benchmark (its own module, which reaches the repo's packages
# through a local replace) and runs it from the checkout root. Everything
# the build and the run write stays inside the checkout: the Go build cache
# and the binaries under .bench_build/, run artefacts under benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd benchmark && go build -o "$build/wtfbenchmark" .)
exec "$build/wtfbenchmark" -root "$root" "$@"
