#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/group_knn.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "geom/metrics.h"
#include "tests/dual_backend.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

double AggregateOf(const std::vector<Point2>& group, const Rect2& mbr,
                   AggregateFn aggregate) {
  double agg = 0.0;
  for (const Point2& q : group) {
    const double d = std::sqrt(MinDistSq(q, mbr));
    agg = aggregate == AggregateFn::kSum ? agg + d : std::max(agg, d);
  }
  return agg;
}

std::vector<GroupNeighbor> BruteGroupKnn(const std::vector<Entry<2>>& data,
                                         const std::vector<Point2>& group,
                                         uint32_t k, AggregateFn aggregate) {
  std::vector<GroupNeighbor> all;
  for (const Entry<2>& e : data) {
    all.push_back(GroupNeighbor{e.id, AggregateOf(group, e.mbr, aggregate)});
  }
  std::sort(all.begin(), all.end(),
            [](const GroupNeighbor& a, const GroupNeighbor& b) {
              return a.aggregate_dist < b.aggregate_dist;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

TEST(GroupKnnTest, RejectsBadArguments) {
  TestIndex2D index;
  EXPECT_TRUE(GroupKnnSearch<2>(*index.tree, {{{0.5, 0.5}}}, 0,
                                AggregateFn::kSum, nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(GroupKnnSearch<2>(*index.tree, {}, 1, AggregateFn::kSum,
                                nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST(GroupKnnTest, EmptyTreeReturnsNothing) {
  TestIndex2D index;
  auto result = GroupKnnSearch<2>(*index.tree, {{{0.5, 0.5}}}, 3,
                                  AggregateFn::kSum, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(GroupKnnTest, SingleMemberGroupEqualsPlainNn) {
  TestIndex2D index;
  Rng rng(61);
  auto data =
      MakePointEntries(GenerateUniform<2>(800, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  const Point2 q{{0.42, 0.17}};
  auto group_result = GroupKnnSearch<2>(*index.tree, {q}, 5,
                                        AggregateFn::kSum, nullptr);
  auto plain_result = KnnSearch<2>(*index.tree, q, [] {
    KnnOptions o;
    o.k = 5;
    return o;
  }(), nullptr);
  ASSERT_TRUE(group_result.ok());
  ASSERT_TRUE(plain_result.ok());
  ASSERT_EQ(group_result->size(), plain_result->size());
  for (size_t i = 0; i < plain_result->size(); ++i) {
    EXPECT_NEAR((*group_result)[i].aggregate_dist,
                std::sqrt((*plain_result)[i].dist_sq), 1e-12);
  }
}

TEST(GroupKnnTest, MeetingPointHandCase) {
  // Two group members at (0,0) and (10,0); candidate meeting points at
  // x = 0, 5, 12. Sum aggregate: 10 at both endpoints... the midpoint also
  // sums to 10, but x=12 sums to 14. Max aggregate: midpoint wins (5 vs 10).
  TestIndex2D index;
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.0, 0.0}}), 1).ok());
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{5.0, 0.0}}), 2).ok());
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{12.0, 0.0}}), 3).ok());
  const std::vector<Point2> group{{{0.0, 0.0}}, {{10.0, 0.0}}};
  auto by_max =
      GroupKnnSearch<2>(*index.tree, group, 1, AggregateFn::kMax, nullptr);
  ASSERT_TRUE(by_max.ok());
  ASSERT_EQ(by_max->size(), 1u);
  EXPECT_EQ((*by_max)[0].id, 2u);
  EXPECT_DOUBLE_EQ((*by_max)[0].aggregate_dist, 5.0);

  auto by_sum =
      GroupKnnSearch<2>(*index.tree, group, 3, AggregateFn::kSum, nullptr);
  ASSERT_TRUE(by_sum.ok());
  ASSERT_EQ(by_sum->size(), 3u);
  EXPECT_DOUBLE_EQ((*by_sum)[0].aggregate_dist, 10.0);
  EXPECT_DOUBLE_EQ((*by_sum)[2].aggregate_dist, 14.0);
  EXPECT_EQ((*by_sum)[2].id, 3u);
}

class GroupKnnPropertyTest
    : public ::testing::TestWithParam<std::tuple<AggregateFn, uint64_t>> {};

TEST_P(GroupKnnPropertyTest, MatchesBruteForce) {
  const auto [aggregate, seed] = GetParam();
  TestIndex2D index;
  Rng rng(seed);
  auto data =
      MakePointEntries(GenerateUniform<2>(2000, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t group_size = 1 + rng.NextBounded(6);
    std::vector<Point2> group(group_size);
    for (auto& q : group) {
      q = {{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    }
    for (uint32_t k : {1u, 6u}) {
      auto result =
          GroupKnnSearch<2>(*index.tree, group, k, aggregate, nullptr);
      ASSERT_TRUE(result.ok());
      auto expected = BruteGroupKnn(data, group, k, aggregate);
      ASSERT_EQ(result->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR((*result)[i].aggregate_dist, expected[i].aggregate_dist,
                    1e-9)
            << "rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupKnnPropertyTest,
    ::testing::Combine(::testing::Values(AggregateFn::kSum,
                                         AggregateFn::kMax),
                       ::testing::Values(21u, 42u)));

TEST(GroupKnnTest, PrunesWithLargeTree) {
  TestIndex2D index;
  Rng rng(63);
  auto data =
      MakePointEntries(GenerateUniform<2>(20000, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  const std::vector<Point2> group{{{0.4, 0.4}}, {{0.6, 0.6}}, {{0.5, 0.3}}};
  QueryStats stats;
  auto result =
      GroupKnnSearch<2>(*index.tree, group, 1, AggregateFn::kSum, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  // Far fewer nodes than the ~900 of the tree.
  EXPECT_LT(stats.nodes_visited, 120u);
}

TEST(GroupKnnTest, TiersGiveIdenticalAnswersAndStats) {
  Rng rng(64);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(3000, UnitBounds<2>(), &rng)));
  for (AggregateFn aggregate : {AggregateFn::kSum, AggregateFn::kMax}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<Point2> group(1 + rng.NextBounded(5));
      for (auto& q : group) q = {{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
      for (uint32_t k : {1u, 8u}) {
        QueryStats paged_stats, resident_stats;
        auto paged = GroupKnnSearch<2>(*index.tree, group, k, aggregate,
                                       &paged_stats);
        auto resident = GroupKnnSearch<2>(*index.resident, group, k,
                                          aggregate, &resident_stats);
        ASSERT_TRUE(paged.ok());
        ASSERT_TRUE(resident.ok());
        ASSERT_EQ(paged->size(), resident->size());
        if (!paged->empty()) {
          EXPECT_EQ(0, std::memcmp(paged->data(), resident->data(),
                                   paged->size() * sizeof(GroupNeighbor)));
        }
        EXPECT_EQ(0, std::memcmp(&paged_stats, &resident_stats,
                                 sizeof(QueryStats)));
        // The batch kernel reproduces the scalar aggregate bit for bit.
        const auto want = BruteGroupKnn(index.data, group, k, aggregate);
        ASSERT_EQ(paged->size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ((*paged)[i].aggregate_dist, want[i].aggregate_dist);
        }
      }
    }
  }
}

}  // namespace
}  // namespace spatial
