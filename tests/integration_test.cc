// End-to-end scenarios crossing every module: storage + tree + NN core +
// baselines + generators, including reopen-from-disk and failure injection.

#include <gtest/gtest.h>

#include <vector>

#include "storage/disk_manager.h"
#include "baselines/grid_file.h"
#include "baselines/range_expand.h"
#include "bench_util/experiment.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "data/tiger_like.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "rtree/validator.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

TEST(IntegrationTest, TigerPipelineEndToEnd) {
  // Generate a road network, index the segment MBRs, reopen from disk, and
  // run all three k-NN algorithms — every answer must agree.
  Rng rng(1001);
  auto network =
      GenerateTigerLike(8000, UnitBounds<2>(), TigerLikeOptions{}, &rng);
  auto data = SegmentsToEntries(network.segments);

  DiskManager disk(1024);
  PageId root;
  {
    BufferPool pool(&disk, 128);
    auto loaded =
        BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
    ASSERT_TRUE(loaded.ok());
    root = loaded->root_page();
    ASSERT_TRUE(pool.FlushAll().ok());
  }

  BufferPool pool(&disk, 32);
  auto reopened = RTree<2>::Open(&pool, RTreeOptions{}, root);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), data.size());

  auto queries = GenerateQueries<2>(data, 30, QueryDistribution::kUniform,
                                    0.0, &rng);
  for (const Point2& q : queries) {
    KnnOptions knn;
    knn.k = 5;
    auto df = KnnSearch<2>(*reopened, q, knn, nullptr);
    auto bf = BestFirstKnn<2>(*reopened, q, 5, nullptr);
    auto re = RangeExpandKnn<2>(*reopened, q, 5, 0.0, nullptr);
    ASSERT_TRUE(df.ok());
    ASSERT_TRUE(bf.ok());
    ASSERT_TRUE(re.ok());
    ExpectKnnMatchesBruteForce(data, q, 5, *df);
    ExpectKnnMatchesBruteForce(data, q, 5, *bf);
    ExpectKnnMatchesBruteForce(data, q, 5, *re);
  }
}

TEST(IntegrationTest, MutateValidateQueryLoop) {
  // Alternating batches of inserts, deletes, structural validation, and NN
  // queries on the same tree.
  TestIndex2D index(/*page_size=*/512, /*buffer_pages=*/64);
  Rng rng(1002);
  std::vector<Entry<2>> live;
  uint64_t next_id = 0;
  for (int round = 0; round < 10; ++round) {
    // Insert a batch.
    for (int i = 0; i < 300; ++i) {
      const Rect2 r =
          Rect2::FromPoint({{rng.Uniform(0, 1), rng.Uniform(0, 1)}});
      ASSERT_TRUE(index.tree->Insert(r, next_id).ok());
      live.push_back(Entry<2>{r, next_id});
      ++next_id;
    }
    // Delete a sub-batch.
    for (int i = 0; i < 100 && !live.empty(); ++i) {
      const size_t pick = rng.NextBounded(live.size());
      auto removed = index.tree->Delete(live[pick].mbr, live[pick].id);
      ASSERT_TRUE(removed.ok());
      ASSERT_TRUE(*removed);
      live[pick] = live.back();
      live.pop_back();
    }
    auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->leaf_entries, live.size());

    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    KnnOptions knn;
    knn.k = 7;
    auto result = KnnSearch<2>(*index.tree, q, knn, nullptr);
    ASSERT_TRUE(result.ok());
    ExpectKnnMatchesBruteForce(live, q, 7, *result);
  }
}

TEST(IntegrationTest, KnnWorksWithSingleFrameBufferPool) {
  // The read path never holds more than one pin, so k-NN must run in a
  // pool with a single frame (pure cold cache: every access is physical).
  DiskManager disk(512);
  PageId root;
  std::vector<Entry<2>> data;
  {
    BufferPool pool(&disk, 64);
    Rng rng(1003);
    data = MakePointEntries(GenerateUniform<2>(3000, UnitBounds<2>(), &rng));
    auto loaded =
        BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kHilbert);
    ASSERT_TRUE(loaded.ok());
    root = loaded->root_page();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  BufferPool tiny(&disk, 1);
  auto tree = RTree<2>::Open(&tiny, RTreeOptions{}, root);
  ASSERT_TRUE(tree.ok());
  QueryStats stats;
  tiny.ResetStats();
  auto result = KnnSearch<2>(*tree, {{0.4, 0.6}}, KnnOptions{}, &stats);
  ASSERT_TRUE(result.ok());
  ExpectKnnMatchesBruteForce(data, {{0.4, 0.6}}, 1, *result);
  // With one frame there can be no reuse across node visits.
  EXPECT_EQ(tiny.stats().misses, stats.nodes_visited);
}

TEST(IntegrationTest, BufferPoolSizeChangesPhysicalNotLogicalIO) {
  // Build once on a large pool, then run the same query batch through a
  // 2-frame pool and a 512-frame pool over the same on-disk tree.
  Rng rng(1004);
  auto data =
      MakePointEntries(GenerateUniform<2>(5000, UnitBounds<2>(), &rng));
  auto queries = GenerateQueries<2>(data, 50, QueryDistribution::kUniform,
                                    0.0, &rng);
  DiskManager disk(512);
  PageId root;
  {
    BufferPool pool(&disk, 512);
    auto loaded =
        BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
    ASSERT_TRUE(loaded.ok());
    root = loaded->root_page();
    ASSERT_TRUE(pool.FlushAll().ok());
  }

  uint64_t logical_small = 0, logical_big = 0;
  uint64_t physical_small = 0, physical_big = 0;
  for (const uint32_t buffer_pages : {2u, 512u}) {
    BufferPool pool(&disk, buffer_pages);
    auto tree = RTree<2>::Open(&pool, RTreeOptions{}, root);
    ASSERT_TRUE(tree.ok());
    pool.ResetStats();
    disk.ResetStats();
    for (const Point2& q : queries) {
      auto result = KnnSearch<2>(*tree, q, KnnOptions{}, nullptr);
      ASSERT_TRUE(result.ok());
    }
    if (buffer_pages == 2u) {
      logical_small = pool.stats().logical_fetches;
      physical_small = disk.stats().physical_reads;
    } else {
      logical_big = pool.stats().logical_fetches;
      physical_big = disk.stats().physical_reads;
    }
  }
  // Logical page accesses (the paper's metric) are a property of the
  // algorithm, not the cache; physical reads collapse with a big buffer.
  EXPECT_EQ(logical_small, logical_big);
  EXPECT_LT(physical_big, physical_small);
}

TEST(IntegrationTest, CorruptInteriorPageSurfacesAsStatusNotCrash) {
  DiskManager disk(512);
  BufferPool pool(&disk, 8);
  Rng rng(1005);
  auto data =
      MakePointEntries(GenerateUniform<2>(2000, UnitBounds<2>(), &rng));
  auto loaded =
      BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  // Smash a non-root page on disk.
  const PageId victim = loaded->root_page() == 0 ? 1 : 0;
  std::vector<char> junk(512, 0x13);
  ASSERT_TRUE(disk.WritePage(victim, junk.data()).ok());

  // Evict caches so the corruption is observed, then query. Depending on
  // the query point the page may or may not be visited; force full
  // traversal with a giant k so it must be read.
  BufferPool cold(&disk, 1);
  auto reopened = RTree<2>::Open(&cold, RTreeOptions{}, loaded->root_page());
  if (!reopened.ok()) {
    EXPECT_TRUE(reopened.status().IsCorruption());
    return;
  }
  KnnOptions knn;
  knn.k = static_cast<uint32_t>(data.size());
  auto result = KnnSearch<2>(*reopened, {{0.5, 0.5}}, knn, nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

TEST(IntegrationTest, GridAndTreeAgreeOnSkewedData) {
  Rng rng(1006);
  auto network =
      GenerateTigerLike(6000, UnitBounds<2>(), TigerLikeOptions{}, &rng);
  auto data = MakePointEntries(SegmentMidpoints(network.segments));
  TestIndex2D index(/*page_size=*/512, /*buffer_pages=*/128);
  index.InsertAll(data);
  GridFile<2> grid(data, 48);
  auto queries = GenerateQueries<2>(data, 40, QueryDistribution::kPerturbed,
                                    0.02, &rng);
  for (const Point2& q : queries) {
    auto tree_result = KnnSearch<2>(*index.tree, q, KnnOptions{}, nullptr);
    auto grid_result = grid.Knn(q, 1, nullptr);
    ASSERT_TRUE(tree_result.ok());
    ASSERT_TRUE(grid_result.ok());
    ASSERT_EQ(tree_result->size(), 1u);
    ASSERT_EQ(grid_result->size(), 1u);
    EXPECT_DOUBLE_EQ((*tree_result)[0].dist_sq, (*grid_result)[0].dist_sq);
  }
}

}  // namespace
}  // namespace spatial
