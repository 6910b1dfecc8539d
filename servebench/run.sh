#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash servebench/run.sh --workload explore-cold --seed 1 --seconds 30 --trace 0
#   bash servebench/run.sh compare parent.jsonl change.jsonl
#
# Run it from the repository root. The Go build cache, the binary, the
# generated datasets and the traces all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
