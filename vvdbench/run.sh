#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark:
#
#   bash vvdbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ in the
# current directory.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "${root}/vvdbench" && go build -o "${out}/vvdbench" .)
exec "${out}/vvdbench" "$@"
