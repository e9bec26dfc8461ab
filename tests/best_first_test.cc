#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/knn.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "tests/dual_backend.h"
#include "tests/reference.h"
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

// Both tiers run the same best-first engine: answers and every QueryStats
// counter match byte for byte, distances match the brute-force reference,
// and the frontier pops exactly the nodes it visits.
template <int D>
void CheckBestFirstOnBothTiers(uint64_t seed) {
  Rng rng(seed);
  DualBackend<D> index(
      MakePointEntries(GenerateUniform<D>(3000, UnitBounds<D>(), &rng)));
  const auto queries = GenerateQueries<D>(
      index.data, 30, QueryDistribution::kUniform, 0.0, &rng);
  QueryScratch<D> scratch;
  const uint32_t whole = static_cast<uint32_t>(index.data.size()) + 5;
  for (uint32_t k : {1u, 10u, 100u, whole}) {
    for (const Point<D>& q : queries) {
      QueryStats paged_stats, resident_stats;
      auto paged = BestFirstKnn<D>(*index.tree, q, k, &paged_stats, &scratch);
      auto resident = BestFirstKnn<D>(*index.resident, q, k, &resident_stats);
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();
      ASSERT_TRUE(resident.ok()) << resident.status().ToString();
      ExpectNeighborsByteIdentical(*resident, *paged);
      EXPECT_EQ(0, std::memcmp(&paged_stats, &resident_stats,
                               sizeof(QueryStats)));
      const std::vector<Neighbor> want = RefKnn<D>(index.data, q, k);
      ASSERT_EQ(paged->size(), want.size()) << "k=" << k;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ((*paged)[i].dist_sq, want[i].dist_sq)
            << "k=" << k << " rank " << i;
      }
      EXPECT_GT(paged_stats.nodes_visited, 0u);
      EXPECT_EQ(paged_stats.heap_pops, paged_stats.nodes_visited);
      EXPECT_GE(paged_stats.heap_pushes, paged_stats.heap_pops);
    }
  }
}

TEST(BestFirstTest, TiersAgreeAndMatchReference2D) {
  CheckBestFirstOnBothTiers<2>(65);
}

TEST(BestFirstTest, TiersAgreeAndMatchReference3D) {
  CheckBestFirstOnBothTiers<3>(66);
}

}  // namespace
}  // namespace spatial
