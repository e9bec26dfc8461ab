// The advanced query classes against ground truth: reverse k-NN and the
// NN skyline must match the brute-force references byte for byte on both
// backends (paged and resident); approximate kNN must honor its
// (1+epsilon) distance contract and its visit budget, and degenerate to
// the exact search when both knobs are off; distance-bounded kNN must
// equal the radius-filtered exact reference. The service layer must
// reject approximation knobs on exact kinds and reverse k-NN on
// non-planar services.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/knn.h"
#include "core/reverse_knn.h"
#include "core/scratch.h"
#include "core/skyline.h"
#include "data/clustered.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "db/spatial_db.h"
#include "service/query_service.h"
#include "tests/dual_backend.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

template <int D>
void ExpectEntriesByteIdentical(const std::vector<Entry<D>>& got,
                                const std::vector<Entry<D>>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Entry<D>)));
  }
}

// ---------------------------------------------------------------------------
// Reverse k-NN.

class ReverseKnnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReverseKnnPropertyTest, MatchesBruteForceBothBackends) {
  Rng rng(GetParam());
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(600, UnitBounds<2>(), &rng)));
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  for (int trial = 0; trial < 12; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    for (uint32_t k : {1u, 2u, 5u}) {
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " k=" + std::to_string(k));
      const auto want = RefReverseKnn<2>(index.data, q, k);
      ReverseKnnOptions options;
      options.k = k;
      ASSERT_TRUE(ReverseKnnSearch(*index.tree, q, options, &scratch, &got,
                                   nullptr)
                      .ok());
      ExpectNeighborsByteIdentical(got, want);
      ASSERT_TRUE(ReverseKnnSearch(*index.resident, q, options, &scratch,
                                   &got, nullptr)
                      .ok());
      ExpectNeighborsByteIdentical(got, want);
    }
  }
}

TEST_P(ReverseKnnPropertyTest, MatchesBruteForceClustered) {
  Rng rng(GetParam() ^ 0xbeef);
  DualBackend<2> index(MakePointEntries(
      GenerateClustered<2>(500, UnitBounds<2>(), ClusteredOptions{}, &rng)));
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  for (int trial = 0; trial < 10; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    for (uint32_t k : {1u, 3u}) {
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " k=" + std::to_string(k));
      const auto want = RefReverseKnn<2>(index.data, q, k);
      ReverseKnnOptions options;
      options.k = k;
      ASSERT_TRUE(ReverseKnnSearch(*index.tree, q, options, &scratch, &got,
                                   nullptr)
                      .ok());
      ExpectNeighborsByteIdentical(got, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseKnnPropertyTest,
                         ::testing::Values(5u, 55u, 555u));

TEST(ReverseKnnTest, QueryOnDataPointAlwaysQualifiesIt) {
  DualBackend<2> index({{Rect2::FromPoint({{0.5, 0.5}}), 1},
                        {Rect2::FromPoint({{0.9, 0.9}}), 2},
                        {Rect2::FromPoint({{0.1, 0.9}}), 3}});
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  ASSERT_TRUE(ReverseKnnSearch(*index.tree, {{0.5, 0.5}},
                               ReverseKnnOptions{}, &scratch, &got, nullptr)
                  .ok());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_EQ(got[0].dist_sq, 0.0);
}

TEST(ReverseKnnTest, LargeKReturnsEveryObject) {
  // With k >= n every object trivially counts the query among its k-NN.
  Rng rng(23);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(50, UnitBounds<2>(), &rng)));
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  ReverseKnnOptions options;
  options.k = 64;
  ASSERT_TRUE(ReverseKnnSearch(*index.tree, {{0.5, 0.5}}, options, &scratch,
                               &got, nullptr)
                  .ok());
  EXPECT_EQ(got.size(), index.data.size());
}

TEST(ReverseKnnTest, RejectsZeroK) {
  DualBackend<2> index(
      {{Rect2::FromPoint({{0.5, 0.5}}), 1}});
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  ReverseKnnOptions options;
  options.k = 0;
  const Status s = ReverseKnnSearch(*index.tree, {{0.5, 0.5}}, options,
                                    &scratch, &got, nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// ---------------------------------------------------------------------------
// NN skyline.

template <int D>
void RunSkylineSuite(uint64_t seed) {
  Rng rng(seed);
  DualBackend<D> index(
      MakePointEntries(GenerateUniform<D>(500, UnitBounds<D>(), &rng)));
  QueryScratch<D> scratch;
  std::vector<Entry<D>> got;
  for (size_t m : {1u, 2u, 3u}) {
    std::vector<Point<D>> sources;
    for (size_t i = 0; i < m; ++i) {
      Point<D> p;
      for (int d = 0; d < D; ++d) p[d] = rng.Uniform(0, 1);
      sources.push_back(p);
    }
    SCOPED_TRACE("m=" + std::to_string(m));
    const auto want = RefSkyline<D>(index.data, sources);
    ASSERT_TRUE(NnSkylineSearch<D>(*index.tree, sources.data(), m, &scratch,
                                   &got, nullptr)
                    .ok());
    ExpectEntriesByteIdentical<D>(got, want);
    ASSERT_TRUE(NnSkylineSearch<D>(*index.resident, sources.data(), m,
                                   &scratch, &got, nullptr)
                    .ok());
    ExpectEntriesByteIdentical<D>(got, want);
  }
}

TEST(NnSkylineTest, MatchesBruteForce2D) { RunSkylineSuite<2>(71); }
TEST(NnSkylineTest, MatchesBruteForce3D) { RunSkylineSuite<3>(72); }
TEST(NnSkylineTest, MatchesBruteForce4D) { RunSkylineSuite<4>(73); }

TEST(NnSkylineTest, SingleSourceDegeneratesToNearestObject) {
  Rng rng(31);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(400, UnitBounds<2>(), &rng)));
  QueryScratch<2> scratch;
  std::vector<Entry<2>> got;
  const Point2 q{{0.42, 0.58}};
  ASSERT_TRUE(
      NnSkylineSearch<2>(*index.tree, &q, 1, &scratch, &got, nullptr).ok());
  // Tie-free random data: exactly the single nearest object.
  const auto nn = RefKnn<2>(index.data, q, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, nn[0].id);
}

TEST(NnSkylineTest, RejectsEmptySources) {
  DualBackend<2> index({{Rect2::FromPoint({{0.5, 0.5}}), 1}});
  QueryScratch<2> scratch;
  std::vector<Entry<2>> got;
  const Status s =
      NnSkylineSearch<2>(*index.tree, nullptr, 0, &scratch, &got, nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Approximate kNN.

TEST(ApproxKnnTest, ZeroKnobsAreByteIdenticalToExact) {
  Rng rng(41);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(2000, UnitBounds<2>(), &rng)));
  QueryScratch<2> scratch;
  std::vector<Neighbor> exact;
  std::vector<Neighbor> approx;
  for (int trial = 0; trial < 25; ++trial) {
    const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    KnnOptions plain;
    plain.k = 10;
    KnnOptions knobs;
    knobs.k = 10;
    knobs.epsilon = 0.0;
    knobs.max_visits = 0;
    ASSERT_TRUE(
        KnnSearchInto<2>(*index.tree, q, plain, &scratch, &exact, nullptr)
            .ok());
    ASSERT_TRUE(
        KnnSearchInto<2>(*index.tree, q, knobs, &scratch, &approx, nullptr)
            .ok());
    ExpectNeighborsByteIdentical(approx, exact);
  }
}

TEST(ApproxKnnTest, EpsilonContractHoldsBothBackends) {
  Rng rng(43);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(3000, UnitBounds<2>(), &rng)));
  QueryScratch<2> scratch;
  std::vector<Neighbor> approx;
  for (double eps : {0.1, 0.5, 1.0, 3.0}) {
    KnnOptions options;
    options.k = 10;
    options.epsilon = eps;
    const double factor = (1.0 + eps) * (1.0 + eps) * (1.0 + 1e-9);
    for (int trial = 0; trial < 20; ++trial) {
      const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
      const auto exact = RefKnn<2>(index.data, q, options.k);
      SCOPED_TRACE("eps=" + std::to_string(eps) +
                   " trial=" + std::to_string(trial));
      for (int backend = 0; backend < 2; ++backend) {
        const Status s =
            backend == 0 ? KnnSearchInto<2>(*index.tree, q, options, &scratch,
                                            &approx, nullptr)
                         : KnnSearchInto<2>(*index.resident, q, options,
                                            &scratch, &approx, nullptr);
        ASSERT_TRUE(s.ok());
        // Same cardinality, sorted, and every rank within (1+eps) of truth
        // (squared distances compare against (1+eps)^2).
        ASSERT_EQ(approx.size(), exact.size());
        for (size_t i = 0; i < approx.size(); ++i) {
          ASSERT_LE(approx[i].dist_sq, exact[i].dist_sq * factor)
              << "rank " << i << " backend " << backend;
          if (i > 0) {
            ASSERT_LE(approx[i - 1].dist_sq, approx[i].dist_sq);
          }
        }
      }
    }
  }
}

TEST(ApproxKnnTest, VisitBudgetCapsPageAccesses) {
  Rng rng(47);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(3000, UnitBounds<2>(), &rng)));
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  const Point2 q{{0.5, 0.5}};
  for (uint64_t budget : {1ull, 2ull, 8ull}) {
    KnnOptions options;
    options.k = 10;
    options.max_visits = budget;
    QueryStats stats;
    ASSERT_TRUE(
        KnnSearchInto<2>(*index.tree, q, options, &scratch, &got, &stats)
            .ok());
    EXPECT_LE(stats.nodes_visited, budget);
    // Whatever comes back must be real objects at true distances, sorted.
    for (size_t i = 0; i < got.size(); ++i) {
      if (i > 0) {
        EXPECT_LE(got[i - 1].dist_sq, got[i].dist_sq);
      }
      bool found = false;
      for (const Entry<2>& e : index.data) {
        if (e.id == got[i].id) {
          EXPECT_EQ(got[i].dist_sq, MinDistSq(q, e.mbr));
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "unknown id " << got[i].id;
    }
  }
  // A budget beyond the tree size changes nothing.
  KnnOptions generous;
  generous.k = 10;
  generous.max_visits = 1u << 20;
  ASSERT_TRUE(
      KnnSearchInto<2>(*index.tree, q, generous, &scratch, &got, nullptr)
          .ok());
  ExpectNeighborsByteIdentical(got, RefKnn<2>(index.data, q, 10));
}

// ---------------------------------------------------------------------------
// Distance-bounded kNN (KnnOptions::max_distance).

TEST(MaxDistanceKnnTest, MatchesFilteredReferenceBothBackends) {
  Rng rng(53);
  DualBackend<2> index(
      MakePointEntries(GenerateUniform<2>(2000, UnitBounds<2>(), &rng)));
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  for (double radius : {0.0, 0.02, 0.1, 0.5, 2.0}) {
    KnnOptions options;
    options.k = 40;
    options.max_distance = radius;
    for (int trial = 0; trial < 10; ++trial) {
      const Point2 q{{rng.Uniform(0, 1), rng.Uniform(0, 1)}};
      SCOPED_TRACE("radius=" + std::to_string(radius) +
                   " trial=" + std::to_string(trial));
      const auto want = RefKnn<2>(index.data, q, options.k, radius);
      ASSERT_TRUE(
          KnnSearchInto<2>(*index.tree, q, options, &scratch, &got, nullptr)
              .ok());
      ExpectNeighborsByteIdentical(got, want);
      ASSERT_TRUE(KnnSearchInto<2>(*index.resident, q, options, &scratch,
                                   &got, nullptr)
                      .ok());
      ExpectNeighborsByteIdentical(got, want);
    }
  }
}

TEST(MaxDistanceKnnTest, BoundaryIsInclusive) {
  DualBackend<2> index({{Rect2::FromPoint({{0.3, 0.0}}), 1},
                        {Rect2::FromPoint({{0.8, 0.0}}), 2}});
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  KnnOptions options;
  options.k = 10;
  options.max_distance = 0.3;  // exactly the distance of object 1
  ASSERT_TRUE(KnnSearchInto<2>(*index.tree, {{0.0, 0.0}}, options, &scratch,
                               &got, nullptr)
                  .ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 1u);
}

TEST(MaxDistanceKnnTest, OptionValidation) {
  DualBackend<2> index({{Rect2::FromPoint({{0.5, 0.5}}), 1}});
  QueryScratch<2> scratch;
  std::vector<Neighbor> got;
  KnnOptions options;
  options.k = 1;
  options.max_distance = -1.0;
  EXPECT_TRUE(KnnSearchInto<2>(*index.tree, {{0, 0}}, options, &scratch,
                               &got, nullptr)
                  .IsInvalidArgument());
  options.max_distance = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(KnnSearchInto<2>(*index.tree, {{0, 0}}, options, &scratch,
                               &got, nullptr)
                  .IsInvalidArgument());
  options.max_distance = 1.0;
  options.epsilon = -0.5;
  EXPECT_TRUE(KnnSearchInto<2>(*index.tree, {{0, 0}}, options, &scratch,
                               &got, nullptr)
                  .IsInvalidArgument());
  options.epsilon = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(KnnSearchInto<2>(*index.tree, {{0, 0}}, options, &scratch,
                               &got, nullptr)
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Service layer.

template <int D>
Result<SpatialDb<D>> MakeServableDb(const std::vector<Entry<D>>& data) {
  typename SpatialDb<D>::Options options;
  options.page_size = 512;
  options.buffer_pages = 64;
  SPATIAL_ASSIGN_OR_RETURN(SpatialDb<D> db,
                           SpatialDb<D>::CreateInMemory(options));
  SPATIAL_RETURN_IF_ERROR(db.BulkLoadData(data, BulkLoadMethod::kStr));
  return db;
}

TEST(AdvancedServiceTest, NewKindsMatchDirectCallsBothTiers) {
  Rng rng(61);
  const auto data =
      MakePointEntries(GenerateUniform<2>(1200, UnitBounds<2>(), &rng));
  auto db = MakeServableDb<2>(data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  for (bool resident : {false, true}) {
    SCOPED_TRACE(resident ? "resident" : "paged");
    QueryService<2>::Options options;
    options.num_workers = 2;
    options.resident_tier = resident;
    auto service = QueryService<2>::Attach(*db, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();

    const Point2 q{{0.37, 0.61}};

    QueryResponse<2> rknn =
        (*service)->Execute(QueryRequest<2>::ReverseKnn(q, 3));
    ASSERT_TRUE(rknn.ok()) << rknn.status.ToString();
    ExpectNeighborsByteIdentical(rknn.neighbors,
                                 RefReverseKnn<2>(data, q, 3));

    std::vector<Point2> sources{{{0.1, 0.2}}, {{0.8, 0.7}}};
    QueryResponse<2> sky =
        (*service)->Execute(QueryRequest<2>::NnSkyline(sources));
    ASSERT_TRUE(sky.ok()) << sky.status.ToString();
    ExpectEntriesByteIdentical<2>(sky.entries, RefSkyline<2>(data, sources));

    QueryResponse<2> approx =
        (*service)->Execute(QueryRequest<2>::ApproxKnn(q, 5, 0.5));
    ASSERT_TRUE(approx.ok()) << approx.status.ToString();
    const auto exact = RefKnn<2>(data, q, 5);
    ASSERT_EQ(approx.neighbors.size(), exact.size());
    const double factor = 1.5 * 1.5 * (1.0 + 1e-9);
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_LE(approx.neighbors[i].dist_sq, exact[i].dist_sq * factor);
    }

    // Candidate-only scatter support returns entries with geometry.
    QueryRequest<2> cand = QueryRequest<2>::ReverseKnn(q, 3);
    cand.rknn_candidates_only = true;
    QueryResponse<2> cands = (*service)->Execute(cand);
    ASSERT_TRUE(cands.ok());
    EXPECT_TRUE(cands.neighbors.empty());
    // Every true reverse k-NN must appear among the candidates.
    for (const Neighbor& want : RefReverseKnn<2>(data, q, 3)) {
      bool present = false;
      for (const Entry<2>& e : cands.entries) present |= e.id == want.id;
      EXPECT_TRUE(present) << "missing candidate " << want.id;
    }
  }
}

TEST(AdvancedServiceTest, ReverseKnnRejectedOnNonPlanarService) {
  Rng rng(67);
  const auto data =
      MakePointEntries(GenerateUniform<3>(200, UnitBounds<3>(), &rng));
  auto db = MakeServableDb<3>(data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto service = QueryService<3>::Attach(*db, {});
  ASSERT_TRUE(service.ok());
  QueryResponse<3> r =
      (*service)->Execute(QueryRequest<3>::ReverseKnn({{0.5, 0.5, 0.5}}, 2));
  EXPECT_TRUE(r.status.IsInvalidArgument()) << r.status.ToString();
}

TEST(AdvancedServiceTest, ExactKindsRejectApproxKnobs) {
  Rng rng(71);
  const auto data =
      MakePointEntries(GenerateUniform<2>(300, UnitBounds<2>(), &rng));
  auto db = MakeServableDb<2>(data);
  ASSERT_TRUE(db.ok());
  auto service = QueryService<2>::Attach(*db, {});
  ASSERT_TRUE(service.ok());
  const Point2 q{{0.5, 0.5}};

  QueryRequest<2> knn = QueryRequest<2>::Knn(q, 3);
  knn.knn.epsilon = 0.2;
  EXPECT_TRUE((*service)->Execute(knn).status.IsInvalidArgument());

  QueryRequest<2> batch = QueryRequest<2>::BatchKnn({q}, 3);
  batch.knn.max_visits = 5;
  EXPECT_TRUE((*service)->Execute(batch).status.IsInvalidArgument());

  QueryRequest<2> constrained = QueryRequest<2>::ConstrainedKnn(
      q, Rect2::FromCorners({{0, 0}}, {{1, 1}}), 3);
  constrained.knn.max_distance = 0.5;
  EXPECT_TRUE((*service)->Execute(constrained).status.IsInvalidArgument());

  // max_distance IS allowed on plain kNN: distance-bounded exact search.
  QueryRequest<2> bounded = QueryRequest<2>::Knn(q, 40);
  bounded.knn.max_distance = 0.1;
  QueryResponse<2> got = (*service)->Execute(bounded);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ExpectNeighborsByteIdentical(got.neighbors, RefKnn<2>(data, q, 40, 0.1));
}

// The kind table invariants beyond what static_assert already proves.
TEST(QueryKindTableTest, NamesAndFlags) {
  EXPECT_STREQ(QueryKindName(QueryKind::kReverseKnn), "reverse-knn");
  EXPECT_STREQ(QueryKindName(QueryKind::kNnSkyline), "nn-skyline");
  EXPECT_STREQ(QueryKindName(QueryKind::kApproxKnn), "approx-knn");
  EXPECT_STREQ(QueryKindName(static_cast<QueryKind>(255)), "unknown");
  EXPECT_FALSE(IsWriteKind(QueryKind::kApproxKnn));
  EXPECT_TRUE(IsWriteKind(QueryKind::kInsert));
  EXPECT_TRUE(IsResidentEligible(QueryKind::kReverseKnn));
  EXPECT_TRUE(IsResidentEligible(QueryKind::kNnSkyline));
  EXPECT_TRUE(IsResidentEligible(QueryKind::kApproxKnn));
  EXPECT_TRUE(IsResidentEligible(QueryKind::kConstrainedKnn));
  EXPECT_FALSE(IsResidentEligible(QueryKind::kRange));
  EXPECT_FALSE(IsResidentEligible(static_cast<QueryKind>(255)));
}

}  // namespace
}  // namespace spatial
