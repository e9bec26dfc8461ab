#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/constrained.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "tests/dual_backend.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

TEST(ConstrainedKnnTest, EmptyRegionReturnsNothing) {
  TestIndex2D index;
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.5, 0.5}}), 1).ok());
  auto result = ConstrainedKnnSearch<2>(*index.tree, {{0.5, 0.5}},
                                        Rect2::Empty(), KnnOptions{}, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(ConstrainedKnnTest, RegionExcludesCloserObjects) {
  TestIndex2D index;
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.1, 0.1}}), 1).ok());
  ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint({{0.9, 0.9}}), 2).ok());
  // Query near object 1 but restrict to the far quadrant.
  const Rect2 region{{{0.5, 0.5}}, {{1.0, 1.0}}};
  auto result = ConstrainedKnnSearch<2>(*index.tree, {{0.0, 0.0}}, region,
                                        KnnOptions{}, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 2u);
}

class ConstrainedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConstrainedPropertyTest, MatchesFilteredBruteForce) {
  TestIndex2D index;
  Rng rng(GetParam());
  auto data =
      MakePointEntries(GenerateUniform<2>(2500, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  for (int trial = 0; trial < 40; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    Point2 a{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    Point2 b{{a[0] + rng.Uniform(0, 0.5), a[1] + rng.Uniform(0, 0.5)}};
    const Rect2 region = Rect2::FromCorners(a, b);
    for (uint32_t k : {1u, 5u}) {
      KnnOptions options;
      options.k = k;
      auto result =
          ConstrainedKnnSearch<2>(*index.tree, q, region, options, nullptr);
      ASSERT_TRUE(result.ok());
      auto expected = RefConstrainedKnn<2>(data, q, region, k);
      ASSERT_EQ(result->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_DOUBLE_EQ((*result)[i].dist_sq, expected[i].dist_sq);
      }
      // Every reported object is actually inside the region.
      for (const Neighbor& n : *result) {
        EXPECT_TRUE(region.Contains(data[n.id].mbr.Center()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstrainedPropertyTest,
                         ::testing::Values(7u, 77u, 777u));

TEST(ConstrainedKnnTest, WholeDomainRegionEqualsPlainKnn) {
  TestIndex2D index;
  Rng rng(88);
  auto data =
      MakePointEntries(GenerateUniform<2>(1500, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  KnnOptions options;
  options.k = 6;
  auto queries = GenerateQueries<2>(data, 30, QueryDistribution::kUniform,
                                    0.0, &rng);
  for (const Point2& q : queries) {
    auto constrained = ConstrainedKnnSearch<2>(*index.tree, q,
                                               UnitBounds<2>(), options,
                                               nullptr);
    auto plain = KnnSearch<2>(*index.tree, q, options, nullptr);
    ASSERT_TRUE(constrained.ok());
    ASSERT_TRUE(plain.ok());
    ASSERT_EQ(constrained->size(), plain->size());
    for (size_t i = 0; i < plain->size(); ++i) {
      ASSERT_DOUBLE_EQ((*constrained)[i].dist_sq, (*plain)[i].dist_sq);
    }
  }
}

TEST(ConstrainedKnnTest, TinyRegionPrunesMostPages) {
  TestIndex2D index;
  Rng rng(89);
  auto data =
      MakePointEntries(GenerateUniform<2>(20000, UnitBounds<2>(), &rng));
  index.InsertAll(data);
  QueryStats window_stats, full_stats;
  const Rect2 tiny{{{0.70, 0.70}}, {{0.72, 0.72}}};
  KnnOptions options;
  options.k = 3;
  ASSERT_TRUE(ConstrainedKnnSearch<2>(*index.tree, {{0.1, 0.1}}, tiny,
                                      options, &window_stats)
                  .ok());
  ASSERT_TRUE(ConstrainedKnnSearch<2>(*index.tree, {{0.1, 0.1}},
                                      UnitBounds<2>(), options, &full_stats)
                  .ok());
  EXPECT_LT(window_stats.nodes_visited, full_stats.nodes_visited);
}

TEST(ConstrainedKnnTest, RejectsBadOptions) {
  TestIndex2D index;
  KnnOptions options;
  options.k = 0;
  EXPECT_TRUE(ConstrainedKnnSearch<2>(*index.tree, {{0, 0}}, UnitBounds<2>(),
                                      options, nullptr)
                  .status()
                  .IsInvalidArgument());
}

// The options a window leaves in force. 5,000 uniform points, STR-packed,
// q at the centre, the whole unit square as the region: the window drops
// nothing, so max_distance must bound the answer exactly as it bounds
// plain kNN, and the approximation knobs are rejected instead of being
// silently ignored.
TEST(ConstrainedKnnTest, MaxDistanceBoundsTheAnswerAsForPlainKnn) {
  Rng rng(5000);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(5000, UnitBounds<2>(), &rng)));
  const Point2 q{{0.5, 0.5}};
  for (double max_distance : {0.001, 0.01, 0.02}) {
    SCOPED_TRACE(max_distance);
    KnnOptions options;
    options.k = 5;
    options.max_distance = max_distance;
    auto plain = KnnSearch<2>(*index.tree, q, options, nullptr);
    auto constrained = ConstrainedKnnSearch<2>(*index.tree, q,
                                               UnitBounds<2>(), options,
                                               nullptr);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(constrained.ok());
    ExpectNeighborsByteIdentical(*constrained, *plain);
    ExpectNeighborsByteIdentical(*constrained,
                                 RefKnn<2>(index.data, q, 5, max_distance));
  }
}

TEST(ConstrainedKnnTest, WindowRejectsEpsilonAndMaxVisits) {
  Rng rng(5000);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(5000, UnitBounds<2>(), &rng)));
  KnnOptions epsilon;
  epsilon.k = 5;
  epsilon.epsilon = 0.5;
  KnnOptions budget;
  budget.k = 5;
  budget.max_visits = 1;
  for (const KnnOptions& options : {epsilon, budget}) {
    QueryStats stats;
    EXPECT_TRUE(ConstrainedKnnSearch<2>(*index.tree, {{0.5, 0.5}},
                                        UnitBounds<2>(), options, &stats)
                    .status()
                    .IsInvalidArgument());
    EXPECT_EQ(stats.nodes_visited, 0u);
  }
}

// Constrained kNN on both tiers. The paged and resident answers and
// counters must be byte-identical, and the answer must equal the brute-
// force one (tie-free random data, so ids match too).
template <int D>
std::vector<Neighbor> ConstrainedBothTiers(const DualBackend<D>& index,
                                           const Point<D>& q,
                                           const Rect<D>& window,
                                           const KnnOptions& options,
                                           QueryStats* stats = nullptr) {
  QueryStats paged_stats;
  QueryStats resident_stats;
  auto paged = ConstrainedKnnSearch<D>(*index.tree, q, window, options,
                                       &paged_stats);
  auto resident = ConstrainedKnnSearch<D>(*index.resident, q, window, options,
                                          &resident_stats);
  EXPECT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE(resident.ok()) << resident.status().ToString();
  if (!paged.ok() || !resident.ok()) return {};
  ExpectNeighborsByteIdentical(*resident, *paged);
  EXPECT_EQ(0, std::memcmp(&resident_stats, &paged_stats, sizeof(QueryStats)));
  ExpectNeighborsByteIdentical(
      *paged, RefConstrainedKnn<D>(index.data, q, window, options.k,
                                   options.max_distance));
  if (stats != nullptr) *stats = paged_stats;
  return *paged;
}

std::vector<Entry<2>> UniformPoints2(size_t n, uint64_t seed) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

TEST(ConstrainedDualTest, ObjectOnTheWindowBoundaryQualifies) {
  DualBackend<2> index(UniformPoints2(3000, 31));
  KnnOptions options;
  options.k = 4;
  for (size_t i = 0; i < 40; ++i) {
    const Point2 p = index.data[i].mbr.lo;
    const uint64_t id = index.data[i].id;
    // p on a corner, on the right edge, and on the top edge.
    const Rect2 windows[] = {
        Rect2{p, {{p[0] + 0.1, p[1] + 0.1}}},
        Rect2{{{p[0] - 0.1, p[1] - 0.05}}, {{p[0], p[1] + 0.05}}},
        Rect2{{{p[0] - 0.05, p[1] - 0.1}}, {{p[0] + 0.05, p[1]}}},
    };
    for (const Rect2& window : windows) {
      const std::vector<Neighbor> got =
          ConstrainedBothTiers<2>(index, p, window, options);
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got[0].id, id);
      EXPECT_EQ(got[0].dist_sq, 0.0);
      // From outside the window the boundary object still competes.
      ConstrainedBothTiers<2>(index, {{p[0] + 0.3, p[1] - 0.2}}, window,
                              options);
    }
  }
}

TEST(ConstrainedDualTest, PointWindows) {
  DualBackend<2> index(UniformPoints2(3000, 32));
  KnnOptions options;
  options.k = 3;
  for (size_t i = 0; i < 40; ++i) {
    const Entry<2>& e = index.data[i * 7];
    const std::vector<Neighbor> got = ConstrainedBothTiers<2>(
        index, {{0.5, 0.5}}, Rect2::FromPoint(e.mbr.lo), options);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].id, e.id);
  }
  // A point window between the data points holds nothing.
  EXPECT_TRUE(ConstrainedBothTiers<2>(index, {{0.5, 0.5}},
                                      Rect2::FromPoint({{0.123456789, 0.5}}),
                                      options)
                  .empty());
}

TEST(ConstrainedDualTest, WindowsDisjointFromTheDataVisitOnlyTheRoot) {
  DualBackend<2> index(UniformPoints2(3000, 33));
  KnnOptions options;
  options.k = 5;
  const Rect2 windows[] = {
      Rect2{{{2.0, 2.0}}, {{3.0, 3.0}}},
      Rect2{{{-1.0, 0.0}}, {{-0.5, 1.0}}},
      Rect2{{{0.0, 1.5}}, {{1.0, 1.5}}},
  };
  for (const Rect2& window : windows) {
    QueryStats stats;
    EXPECT_TRUE(ConstrainedBothTiers<2>(index, {{0.5, 0.5}}, window, options,
                                        &stats)
                    .empty());
    EXPECT_EQ(stats.nodes_visited, 1u);
  }
}

TEST(ConstrainedDualTest, KBeyondTheObjectsInTheWindowReturnsThemAll) {
  DualBackend<2> index(UniformPoints2(3000, 34));
  Rng rng(35);
  KnnOptions options;
  options.k = 50;
  for (int trial = 0; trial < 30; ++trial) {
    const Point2 a{{rng.Uniform(0, 0.95), rng.Uniform(0, 0.95)}};
    const Rect2 window{a, {{a[0] + 0.05, a[1] + 0.05}}};
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    const std::vector<Neighbor> got =
        ConstrainedBothTiers<2>(index, q, window, options);
    EXPECT_LT(got.size(), 50u);
  }
}

// Every ABL ordering, with and without S3. S1/S2 are off under a window,
// so their flags change neither the answer nor a single counter.
TEST(ConstrainedDualTest, EveryOrderingWithAndWithoutS3) {
  DualBackend<2> index(UniformPoints2(3000, 36));
  Rng rng(37);
  for (int trial = 0; trial < 12; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    const Point2 a{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    const Point2 b{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    const Rect2 window = Rect2::FromCorners(a, b);
    for (AblOrdering ordering : {AblOrdering::kMinDist,
                                 AblOrdering::kMinMaxDist,
                                 AblOrdering::kNone}) {
      for (bool use_s3 : {true, false}) {
        for (uint32_t k : {1u, 7u}) {
          SCOPED_TRACE(std::string(AblOrderingName(ordering)) +
                       " s3=" + std::to_string(use_s3) +
                       " k=" + std::to_string(k));
          KnnOptions options;
          options.k = k;
          options.ordering = ordering;
          options.use_s3 = use_s3;
          QueryStats with_s12;
          const std::vector<Neighbor> got =
              ConstrainedBothTiers<2>(index, q, window, options, &with_s12);
          options.use_s1 = false;
          options.use_s2 = false;
          QueryStats without_s12;
          ExpectNeighborsByteIdentical(
              ConstrainedBothTiers<2>(index, q, window, options,
                                      &without_s12),
              got);
          EXPECT_EQ(0, std::memcmp(&with_s12, &without_s12,
                                   sizeof(QueryStats)));
          EXPECT_EQ(with_s12.pruned_s1, 0u);
          EXPECT_EQ(with_s12.estimate_updates_s2, 0u);
        }
      }
    }
  }
}

TEST(ConstrainedDualTest, MaxDistanceOnBothTiers) {
  DualBackend<2> index(UniformPoints2(3000, 38));
  Rng rng(39);
  for (int trial = 0; trial < 20; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    const Rect2 window =
        Rect2::FromCorners(q, {{rng.Uniform(0, 1), rng.Uniform(0, 1)}});
    KnnOptions options;
    options.k = 10;
    options.max_distance = rng.Uniform(0.0, 0.1);
    ConstrainedBothTiers<2>(index, q, window, options);
  }
}

TEST(ConstrainedDualTest, ThreeDimensions) {
  Rng rng(40);
  DualBackend<3> index(
      MakePointEntries(GenerateUniform<3>(3000, UnitBounds<3>(), &rng)));
  for (int trial = 0; trial < 30; ++trial) {
    const Point<3> q{{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    const Point<3> a{{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    const Point<3> b{{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    for (uint32_t k : {1u, 6u}) {
      KnnOptions options;
      options.k = k;
      ConstrainedBothTiers<3>(index, q, Rect<3>::FromCorners(a, b), options);
    }
  }
}

}  // namespace
}  // namespace spatial
