#include <gtest/gtest.h>

#include <vector>

#include "core/incremental.h"
#include "core/knn.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

TEST(BestFirstTest, RejectsZeroK) {
  TestIndex2D index;
  auto result = BestFirstKnn<2>(*index.tree, {{0.5, 0.5}}, 0, nullptr);
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(BestFirstTest, EmptyTreeReturnsNothing) {
  TestIndex2D index;
  auto result = BestFirstKnn<2>(*index.tree, {{0.5, 0.5}}, 3, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(BestFirstTest, MatchesBruteForceAcrossKs) {
  TestIndex2D index;
  Rng rng(61);
  auto data =
      MakePointEntries(GenerateUniform<2>(2500, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  auto queries = GenerateQueries<2>(data, 50, QueryDistribution::kUniform,
                                    0.0, &rng);
  for (uint32_t k : {1u, 4u, 20u}) {
    for (const Point2& q : queries) {
      auto result = BestFirstKnn<2>(*index.tree, q, k, nullptr);
      ASSERT_TRUE(result.ok());
      ExpectKnnMatchesBruteForce(data, q, k, *result);
    }
  }
}

TEST(BestFirstTest, VisitsNoMoreNodesThanDepthFirst) {
  // Global best-first expansion is page-access optimal: it can never read
  // more nodes than the depth-first branch-and-bound for the same query.
  TestIndex2D index;
  Rng rng(62);
  auto data =
      MakePointEntries(GenerateUniform<2>(4000, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  auto queries = GenerateQueries<2>(data, 100, QueryDistribution::kUniform,
                                    0.0, &rng);
  for (const Point2& q : queries) {
    QueryStats df_stats, bf_stats;
    KnnOptions knn;
    knn.k = 4;
    auto df = KnnSearch<2>(*index.tree, q, knn, &df_stats);
    auto bf = BestFirstKnn<2>(*index.tree, q, 4, &bf_stats);
    ASSERT_TRUE(df.ok());
    ASSERT_TRUE(bf.ok());
    EXPECT_LE(bf_stats.nodes_visited, df_stats.nodes_visited);
  }
}

TEST(BestFirstTest, HeapTrafficIsRecorded) {
  TestIndex2D index;
  Rng rng(63);
  auto data =
      MakePointEntries(GenerateUniform<2>(1000, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  QueryStats stats;
  auto result = BestFirstKnn<2>(*index.tree, {{0.5, 0.5}}, 2, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.heap_pushes, 0u);
  EXPECT_GT(stats.heap_pops, 0u);
  EXPECT_GE(stats.heap_pushes, stats.heap_pops);
}

TEST(BestFirstTest, KBeyondTreeSizeReturnsEverythingOrdered) {
  TestIndex2D index;
  Rng rng(64);
  auto data =
      MakePointEntries(GenerateUniform<2>(50, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  auto result = BestFirstKnn<2>(*index.tree, {{0.0, 0.0}}, 100, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 50u);
  for (size_t i = 1; i < result->size(); ++i) {
    EXPECT_LE((*result)[i - 1].dist_sq, (*result)[i].dist_sq);
  }
}

}  // namespace
}  // namespace spatial
