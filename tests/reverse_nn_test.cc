// Reverse NN is reverse k-NN at k = 1 (what `spatial_cli rnn` runs): object
// o qualifies iff no other object is strictly closer to o than the query
// is. Every answer must match the brute-force reference byte for byte on
// both tiers (paged and resident), and on an insert-built tree too.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/reverse_knn.h"
#include "core/scratch.h"
#include "data/clustered.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "tests/dual_backend.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

// Reverse NN of q on both tiers; the two answers must be byte-identical.
std::vector<Neighbor> ReverseNnBothTiers(const DualBackend<2>& index,
                                         const Point2& q) {
  QueryScratch<2> scratch;
  std::vector<Neighbor> paged;
  std::vector<Neighbor> resident;
  EXPECT_TRUE(ReverseKnnSearch(*index.tree, q, ReverseKnnOptions{}, &scratch,
                               &paged, nullptr)
                  .ok());
  EXPECT_TRUE(ReverseKnnSearch(*index.resident, q, ReverseKnnOptions{},
                               &scratch, &resident, nullptr)
                  .ok());
  ExpectNeighborsByteIdentical(resident, paged);
  return paged;
}

TEST(ReverseNnTest, EmptyTree) {
  DualBackend<2> index(std::vector<Entry<2>>{});
  EXPECT_TRUE(ReverseNnBothTiers(index, {{0.5, 0.5}}).empty());
}

TEST(ReverseNnTest, SingleObjectIsAlwaysReverseNn) {
  DualBackend<2> index({{Rect2::FromPoint({{0.3, 0.3}}), 7}});
  const std::vector<Neighbor> got = ReverseNnBothTiers(index, {{0.9, 0.9}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 7u);
}

TEST(ReverseNnTest, HandCaseAsymmetry) {
  // a at 0, b at 2.5, c at 2.8, query at 1: q is a's nearest entity
  // (|aq| = 1 < |ab| = 2.5), while b and c are each other's nearest (0.3),
  // so neither picks q.
  DualBackend<2> index({{Rect2::FromPoint({{0.0, 0.0}}), 1},
                        {Rect2::FromPoint({{2.5, 0.0}}), 2},
                        {Rect2::FromPoint({{2.8, 0.0}}), 3}});
  const std::vector<Neighbor> got = ReverseNnBothTiers(index, {{1.0, 0.0}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 1u);
}

TEST(ReverseNnTest, QueryOnDataPoint) {
  // Object 1 coincides with q (distance 0): nothing is strictly closer to
  // it than q, so it qualifies whatever else the tree holds.
  DualBackend<2> index({{Rect2::FromPoint({{0.5, 0.5}}), 1},
                        {Rect2::FromPoint({{0.9, 0.9}}), 2}});
  const std::vector<Neighbor> got = ReverseNnBothTiers(index, {{0.5, 0.5}});
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_EQ(got[0].dist_sq, 0.0);
}

class ReverseNnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Checks 30 random queries against the reference on the packed tiers and
// on a tree built by one-at-a-time insertion.
void ExpectMatchesBruteForce(const std::vector<Entry<2>>& data, Rng* rng) {
  DualBackend<2> packed(data);
  TestIndex2D inserted;
  inserted.InsertAll(data);
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const Point2 q{{rng->Uniform(0, 1), rng->Uniform(0, 1)}};
    const std::vector<Neighbor> want = RefReverseKnn<2>(data, q, 1);
    ExpectNeighborsByteIdentical(ReverseNnBothTiers(packed, q), want);
    ASSERT_TRUE(ReverseKnnSearch(*inserted.tree, q, ReverseKnnOptions{},
                                 &scratch, &got, nullptr)
                    .ok());
    ExpectNeighborsByteIdentical(got, want);
  }
}

TEST_P(ReverseNnPropertyTest, MatchesBruteForceUniform) {
  Rng rng(GetParam());
  ExpectMatchesBruteForce(
      MakePointEntries(GenerateUniform<2>(600, UnitBounds<2>(), &rng)), &rng);
}

TEST_P(ReverseNnPropertyTest, MatchesBruteForceClustered) {
  Rng rng(GetParam() ^ 0xcafe);
  ExpectMatchesBruteForce(
      MakePointEntries(GenerateClustered<2>(500, UnitBounds<2>(),
                                            ClusteredOptions{}, &rng)),
      &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseNnPropertyTest,
                         ::testing::Values(3u, 33u, 333u, 3333u));

TEST(ReverseNnTest, ResultCountIsBoundedBySix) {
  // Classic 2-D fact: a point has at most six reverse nearest neighbors in
  // general position (one per 60-degree sector).
  Rng rng(99);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(2000, UnitBounds<2>(), &rng)));
  for (int trial = 0; trial < 50; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    EXPECT_LE(ReverseNnBothTiers(index, q).size(), 6u);
  }
}

TEST(ReverseNnTest, IsolatedQueryFarFromDenseClusterHasNoReverseNn) {
  // All points huddle together; a faraway query attracts nobody.
  Rng rng(100);
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 300; ++i) {
    data.push_back(Entry<2>{
        Rect2::FromPoint(
            {{0.5 + rng.Uniform(0, 0.01), 0.5 + rng.Uniform(0, 0.01)}}),
        i});
  }
  DualBackend<2> index(std::move(data));
  EXPECT_TRUE(ReverseNnBothTiers(index, {{5.0, 5.0}}).empty());
}

}  // namespace
}  // namespace spatial
