#!/usr/bin/env bash
# Build the benchmark project (and the simulator it drives) in
# .bench_build/ at the repository root, then run vsvbench with the given
# arguments. With no arguments it runs all four workloads (5 repetitions
# each) plus the traced replay and prints every metric.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
#
# Build output goes to .bench_build/build.log; a failed build prints its
# tail to stderr and exits nonzero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep compiler and tool temporaries inside the checkout.
export TMPDIR="$build/tmp"

if ! {
    cmake -S "$here" -B "$build/cmake" -DCMAKE_BUILD_TYPE=Release &&
        cmake --build "$build/cmake" -j 4
} >"$build/build.log" 2>&1; then
    echo "vsvbench: build failed; last lines of $build/build.log:" >&2
    tail -n 30 "$build/build.log" >&2
    exit 1
fi

exec "$build/cmake/vsvbench" --work-dir "$build/work" "$@"
