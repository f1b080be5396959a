#!/usr/bin/env bash
# Entry point of the benchmark contract (BENCHMARK.json "command"): build
# bench/kgbench from source inside the checkout, then hand it the arguments.
#
#   bash bench/run.sh --workload sweep_dense --seed 1 --seconds 8 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout; so does the benchmark's scratch
# space. The first build compiles the standard library into that cache and
# takes about a minute; later ones take about a second.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -C "$root/bench" -o "$build/kgbench" ./kgbench
cd "$root"
exec "$build/kgbench" "$@"
