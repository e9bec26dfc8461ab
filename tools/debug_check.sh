#!/usr/bin/env bash
# Builds the repo with -DCMAKE_BUILD_TYPE=Debug into a dedicated build
# directory and runs the whole ctest suite there. Debug is the only build
# type that keeps SPATIAL_DCHECK (common/macros.h): Release and the
# RelWithDebInfo sanitizer builds compile it out, so this is the run that
# holds the engines to the preconditions they assert, such as MINDIST's
# non-empty rectangle (geom/metrics.h).
#
# Usage: tools/debug_check.sh [build-dir]   (default: build-debug)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-debug}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
echo "=== Debug: all tests clean ==="
