#!/usr/bin/env bash
# Builds the repo with ThreadSanitizer (-DSPATIAL_SANITIZE=thread) into a
# dedicated build directory and runs the concurrency-sensitive tests: the
# query-service unit tests (Shutdown racing inline Execute callers), the
# read-only stress test that checks byte-identical results against
# single-threaded KnnSearch (inline Execute callers racing worker threads
# for the same execution contexts), the serving-mode stress test
# (concurrent writes + snapshot-pinned readers, which run inline on their
# own threads across snapshot pins and reclaim_gen pool invalidation),
# the router's own suite (routed writes and the extent growth that follows
# each acked insert, racing the shard workers), the sharded
# scatter-gather stress test (concurrent router calls + live metrics
# scraping, and out-of-tile inserts growing shard extents under range,
# kNN, top-k, approximate and constrained kNN readers that prune shards
# by those extents, each router call running one shard of every round
# inline while the others run on their worker threads), the metrics scrape test (inline and queued reads mixed
# under live scrapes), the advanced
# query kinds' cross-shard merge paths (reverse-kNN verification rounds,
# skyline re-merge, approx contract merge), the resident tier's
# publish/invalidate/recompile-under-write-load race coverage, and the
# distributed-trace test (sampled scatter-gather over RPC with concurrent
# remote admin scrapes against the live trace log), and the RPC server's
# own suite (the accept loop reaping exited handler threads, and handler
# threads serving concurrent clients under the pending budget).
#
# Usage: tools/tsan_check.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DSPATIAL_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target query_service_test service_stress_test serving_stress_test \
  io_stats_test obs_metrics_test metrics_scrape_test shard_router_test \
  shard_stress_test resident_tree_test advanced_shard_test \
  distributed_trace_test net_server_test

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
for t in io_stats_test obs_metrics_test query_service_test \
         service_stress_test shard_router_test shard_stress_test \
         resident_tree_test advanced_shard_test distributed_trace_test \
         net_server_test; do
  echo "=== TSan: $t ==="
  "$BUILD_DIR/tests/$t"
done
for t in serving_stress_test metrics_scrape_test; do
  echo "=== TSan: $t --smoke ==="
  "$BUILD_DIR/tests/$t" --smoke
done
echo "=== TSan: all concurrency tests clean ==="
