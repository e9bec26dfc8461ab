#!/usr/bin/env bash
# Builds the repo with AddressSanitizer + UndefinedBehaviorSanitizer
# (-DSPATIAL_SANITIZE=address+undefined) into a dedicated build directory
# and runs the memory-sensitive tests. The SIMD kernel suite runs once per
# SPATIAL_FORCE_KERNEL tier, so out-of-bounds plane loads, misaligned
# vector stores, and padding-lane overruns in any tier's kernels are caught
# mechanically rather than by inspection; zero_alloc_test rides along
# because it stresses the same staging arenas the kernels write into, and
# the metrics/knn/join tests cover the traversals that drive them.
# constrained_test drives the window filter, which indexes the SoA planes,
# and net_wire_test the table-driven QueryStats codec. best_first_test and
# batch_knn_test drive the kNN engine's best-first order, whose frontier
# indexes the ABL arena by frame offsets; incremental_test and
# group_knn_test drive the GeoBrowse queue and its box slots.
# shard_router_test and advanced_shard_test drive the router's one round
# trip and its merges, reverse kNN's candidate re-selection included, and
# rtree_search_test the R-tree's window walk and its pending-child stack.
# query_service_test and service_stress_test drive the service's inline
# path, which lends a worker's scratch arenas and buffer pool to caller
# threads and returns answers by value. net_server_test drives the framed
# socket I/O of a live connection: SendFrame's two-entry iovec on both
# ends, and the server's reads of frames that arrive split across the
# client's writes (net_wire_test resumes a large write cut by signals).
#
# Usage: tools/asan_check.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

TESTS=(metrics_test metrics_reference_test simd_kernel_test knn_test
       knn_property_test spatial_join_test zero_alloc_test
       resident_tree_test advanced_query_test constrained_test
       net_wire_test best_first_test batch_knn_test incremental_test
       group_knn_test shard_router_test advanced_shard_test
       rtree_search_test query_service_test service_stress_test
       net_server_test)

cmake -B "$BUILD_DIR" -S . -DSPATIAL_SANITIZE=address+undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

for tier in scalar sse2 avx2; do
  echo "=== ASan+UBSan: simd_kernel_test (SPATIAL_FORCE_KERNEL=$tier) ==="
  SPATIAL_FORCE_KERNEL="$tier" "$BUILD_DIR/tests/simd_kernel_test"
done
for t in "${TESTS[@]}"; do
  [[ "$t" == simd_kernel_test ]] && continue
  echo "=== ASan+UBSan: $t ==="
  "$BUILD_DIR/tests/$t"
done
echo "=== ASan+UBSan: all memory-sensitive tests clean ==="
