#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: `bash bench/run.sh [flags]` (see bench/README.md). Everything
# the build and the run write — Go build cache, binary, live index
# directories, span file — stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOFLAGS= GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/s3bench" .)
exec "$build/s3bench" "$@"
