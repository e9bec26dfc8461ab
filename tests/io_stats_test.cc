// Aggregation semantics of the storage/service counter structs: the
// query service folds per-worker counters together with operator+=, so
// these stay in lockstep with the struct fields.

#include "storage/io_stats.h"

#include <gtest/gtest.h>

#include "obs/histogram.h"

namespace spatial {
namespace {

TEST(IoStatsTest, PlusEqualsSumsEveryField) {
  IoStats a;
  a.physical_reads = 1;
  a.physical_writes = 2;
  a.pages_allocated = 3;
  a.pages_freed = 4;

  IoStats b;
  b.physical_reads = 10;
  b.physical_writes = 20;
  b.pages_allocated = 30;
  b.pages_freed = 40;

  a += b;
  EXPECT_EQ(a.physical_reads, 11u);
  EXPECT_EQ(a.physical_writes, 22u);
  EXPECT_EQ(a.pages_allocated, 33u);
  EXPECT_EQ(a.pages_freed, 44u);
  // `b` is untouched.
  EXPECT_EQ(b.physical_reads, 10u);
}

TEST(IoStatsTest, BinaryPlusDoesNotMutateOperands) {
  IoStats a;
  a.physical_reads = 5;
  IoStats b;
  b.physical_reads = 7;
  const IoStats c = a + b;
  EXPECT_EQ(c.physical_reads, 12u);
  EXPECT_EQ(a.physical_reads, 5u);
  EXPECT_EQ(b.physical_reads, 7u);
}

TEST(BufferStatsTest, PlusEqualsSumsEveryField) {
  BufferStats a;
  a.logical_fetches = 100;
  a.hits = 60;
  a.misses = 40;
  a.evictions = 10;
  a.dirty_writebacks = 5;

  BufferStats b;
  b.logical_fetches = 50;
  b.hits = 25;
  b.misses = 25;
  b.evictions = 3;
  b.dirty_writebacks = 1;

  a += b;
  EXPECT_EQ(a.logical_fetches, 150u);
  EXPECT_EQ(a.hits, 85u);
  EXPECT_EQ(a.misses, 65u);
  EXPECT_EQ(a.evictions, 13u);
  EXPECT_EQ(a.dirty_writebacks, 6u);
  EXPECT_DOUBLE_EQ(a.HitRate(), 85.0 / 150.0);
}

TEST(BufferStatsTest, AggregatedHitRateIsWeightedNotAveraged) {
  BufferStats hot;  // 100% hit rate, many fetches
  hot.logical_fetches = 90;
  hot.hits = 90;
  BufferStats cold;  // 0% hit rate, few fetches
  cold.logical_fetches = 10;
  cold.misses = 10;
  BufferStats sum = hot + cold;
  EXPECT_DOUBLE_EQ(sum.HitRate(), 0.9);  // not (1.0 + 0.0) / 2
}

TEST(LatencySnapshotTest, MergeAndPercentiles) {
  LatencyHistogram worker1;
  LatencyHistogram worker2;
  // worker1: 90 fast observations (~1 us); worker2: 10 slow (~1 ms).
  for (int i = 0; i < 90; ++i) worker1.Record(1000);
  for (int i = 0; i < 10; ++i) worker2.Record(1000000);

  LatencySnapshot merged = worker1.Snapshot();
  merged += worker2.Snapshot();
  EXPECT_EQ(merged.total_count, 100u);
  EXPECT_EQ(merged.max, 1000000u);

  // p50 falls in the fast buckets, p99 in the slow ones. Buckets are
  // power-of-two wide, so compare against bucket bounds, not exact values.
  EXPECT_LT(merged.Percentile(0.50), 2048u);
  EXPECT_GE(merged.Percentile(0.99), 524288u);
  EXPECT_GE(merged.Mean(), 1000.0);
}

TEST(LatencySnapshotTest, EmptyHistogram) {
  LatencyHistogram h;
  LatencySnapshot s = h.Snapshot();
  EXPECT_EQ(s.total_count, 0u);
  EXPECT_EQ(s.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
}

TEST(LatencySnapshotTest, ResetClears) {
  LatencyHistogram h;
  h.Record(500);
  h.Reset();
  EXPECT_EQ(h.Snapshot().total_count, 0u);
  EXPECT_EQ(h.Snapshot().max, 0u);
}

}  // namespace
}  // namespace spatial
