#!/usr/bin/env bash
# Build the benchmark package (bench/e2e, which compiles the repository's
# tools from source) into .bench_build under the current directory, then
# run xct_bench with the given arguments:
#
#   bash bench/e2e/run.sh --workload fdk-tomo29 --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the verdict stays the last stdout line.
# Outside a checkout of the repository the configure step fails and the
# script exits non-zero without running anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=.bench_build

if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target xct_bench -j 4 >&2
exec "$build/xct_bench" "$@"
