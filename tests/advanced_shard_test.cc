// Scatter-gather correctness for the advanced query classes: across shard
// counts {1, 2, 4} and both backends, the router's reverse k-NN and NN
// skyline answers must be byte-identical to the brute-force references
// (and hence to a single whole-dataset tree), and approximate kNN must
// keep its (1+epsilon) contract after the cross-shard merge, including
// when S3 on the shard extents prunes every shard but the nearest. A
// reverse kNN's internal round trips are not counted as router requests.

#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "geom/metrics.h"
#include "tests/reference.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeData(size_t n, uint64_t seed = 404) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

ShardSet<2>::Options SetOptions(uint32_t shards, bool file_backed,
                                const std::string& dir) {
  ShardSet<2>::Options options;
  options.num_shards = shards;
  options.file_backed = file_backed;
  options.dir = dir;
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  return options;
}

void ExpectNeighborsByteIdentical(const std::vector<Neighbor>& got,
                                  const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Neighbor)));
  }
}

void ExpectEntriesByteIdentical(const std::vector<Entry<2>>& got,
                                const std::vector<Entry<2>>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Entry<2>)));
  }
}

void RunAdvancedEquivalenceSuite(uint32_t shards, bool file_backed,
                                 bool resident) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " file=" + std::to_string(file_backed) +
               " resident=" + std::to_string(resident));
  const auto data = MakeData(1200);
  auto options = SetOptions(shards, file_backed, ::testing::TempDir());
  options.service.resident_tier = resident;
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};

    // Reverse k-NN: byte-identical to brute force.
    for (uint32_t k : {1u, 3u}) {
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " k=" + std::to_string(k));
      QueryResponse<2> got =
          router.Execute(QueryRequest<2>::ReverseKnn(q, k));
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      ExpectNeighborsByteIdentical(got.neighbors,
                                   RefReverseKnn<2>(data, q, k));
    }

    // NN skyline over 1..3 sources: byte-identical to brute force.
    std::vector<Point2> sources{q};
    for (size_t extra = 0; extra < 2; ++extra) {
      QueryResponse<2> got =
          router.Execute(QueryRequest<2>::NnSkyline(sources));
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      ExpectEntriesByteIdentical(got.entries, RefSkyline<2>(data, sources));
      sources.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
    }

    // Approximate kNN: same count, sorted, every rank within (1+eps).
    for (double eps : {0.0, 0.5}) {
      QueryResponse<2> got =
          router.Execute(QueryRequest<2>::ApproxKnn(q, 10, eps));
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      const auto exact = RefKnn<2>(data, q, 10);
      ASSERT_EQ(got.neighbors.size(), exact.size());
      const double factor = (1.0 + eps) * (1.0 + eps) * (1.0 + 1e-9);
      for (size_t i = 0; i < exact.size(); ++i) {
        ASSERT_LE(got.neighbors[i].dist_sq, exact[i].dist_sq * factor)
            << "rank " << i << " eps " << eps;
        if (i > 0) {
          ASSERT_LE(got.neighbors[i - 1].dist_sq, got.neighbors[i].dist_sq);
        }
      }
      // eps = 0 through the approx path stays exact end to end.
      if (eps == 0.0) {
        ExpectNeighborsByteIdentical(got.neighbors, exact);
      }
    }
  }
}

TEST(AdvancedShardTest, MemoryBackendMatchesReference) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    RunAdvancedEquivalenceSuite(shards, /*file_backed=*/false,
                                /*resident=*/true);
  }
}

TEST(AdvancedShardTest, PagedTierMatchesReference) {
  for (uint32_t shards : {1u, 4u}) {
    RunAdvancedEquivalenceSuite(shards, /*file_backed=*/false,
                                /*resident=*/false);
  }
}

TEST(AdvancedShardTest, FileBackendMatchesReference) {
  for (uint32_t shards : {2u, 4u}) {
    RunAdvancedEquivalenceSuite(shards, /*file_backed=*/true,
                                /*resident=*/true);
  }
}

TEST(AdvancedShardTest, CandidatesOnlySurfacesGlobalSelection) {
  const auto data = MakeData(900);
  auto set = ShardSet<2>::Build(data, SetOptions(3, false, ""));
  ASSERT_TRUE(set.ok());
  ShardRouter<2> router(set->get());
  const Point2 q{{0.5, 0.5}};
  QueryRequest<2> request = QueryRequest<2>::ReverseKnn(q, 2);
  request.rknn_candidates_only = true;
  QueryResponse<2> got = router.Execute(request);
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  EXPECT_TRUE(got.neighbors.empty());
  // Every true reverse k-NN appears among the globally selected candidates.
  for (const Neighbor& want : RefReverseKnn<2>(data, q, 2)) {
    bool present = false;
    for (const Entry<2>& e : got.entries) present |= e.id == want.id;
    EXPECT_TRUE(present) << "missing candidate " << want.id;
  }
}

TEST(AdvancedShardTest, RouterExposesPerKindAndRknnMetrics) {
  const auto data = MakeData(600);
  auto set = ShardSet<2>::Build(data, SetOptions(2, false, ""));
  ASSERT_TRUE(set.ok());
  ShardRouter<2> router(set->get());
  router.Execute(QueryRequest<2>::ReverseKnn({{0.4, 0.4}}, 2));
  router.Execute(QueryRequest<2>::NnSkyline({{{0.2, 0.2}}, {{0.7, 0.7}}}));
  router.Execute(QueryRequest<2>::ApproxKnn({{0.5, 0.5}}, 5, 0.5));
  const std::string scrape = router.ScrapeMetrics();
  EXPECT_NE(
      scrape.find("spatial_router_requests_total{kind=\"reverse-knn\"} 1"),
      std::string::npos);
  EXPECT_NE(
      scrape.find("spatial_router_requests_total{kind=\"nn-skyline\"} 1"),
      std::string::npos);
  EXPECT_NE(
      scrape.find("spatial_router_requests_total{kind=\"approx-knn\"} 1"),
      std::string::npos);
  EXPECT_NE(scrape.find("spatial_router_rknn_candidates_total"),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_router_rknn_verify_rounds_total"),
            std::string::npos);
}

// The value of one series in a scrape, e.g. `name{kind="knn"}`.
uint64_t SeriesValue(const std::string& scrape, const std::string& series) {
  const size_t at = scrape.find("\n" + series + " ");
  EXPECT_NE(at, std::string::npos) << series;
  if (at == std::string::npos) return 0;
  return std::stoull(scrape.substr(at + series.size() + 2));
}

TEST(AdvancedShardTest, ReverseKnnRoundsAreNotCountedAsRequests) {
  // A reverse kNN is one request: its candidate round and its kKnn
  // verification rounds are internal round trips, counted as verification
  // rounds but not as router requests.
  const auto data = MakeData(1200);
  auto set = ShardSet<2>::Build(data, SetOptions(4, false, ""));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());
  const Point2 q{{0.37, 0.61}};

  // The router verifies every global candidate that does not coincide
  // with q.
  QueryRequest<2> candidates_only = QueryRequest<2>::ReverseKnn(q, 2);
  candidates_only.rknn_candidates_only = true;
  const QueryResponse<2> candidates = router.Execute(candidates_only);
  ASSERT_TRUE(candidates.ok()) << candidates.status.ToString();
  uint64_t to_verify = 0;
  for (const Entry<2>& e : candidates.entries) {
    to_verify += MinDistSq<2>(q, e.mbr) != 0.0;
  }
  ASSERT_GT(to_verify, 0u);

  const std::string knn = "spatial_router_requests_total{kind=\"knn\"}";
  const std::string rknn =
      "spatial_router_requests_total{kind=\"reverse-knn\"}";
  const std::string rounds = "spatial_router_rknn_verify_rounds_total";
  const std::string before = router.ScrapeMetrics();
  QueryResponse<2> got = router.Execute(QueryRequest<2>::ReverseKnn(q, 2));
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ExpectNeighborsByteIdentical(got.neighbors, RefReverseKnn<2>(data, q, 2));
  const std::string after = router.ScrapeMetrics();
  EXPECT_EQ(SeriesValue(after, knn), SeriesValue(before, knn));
  EXPECT_EQ(SeriesValue(after, rknn) - SeriesValue(before, rknn), 1u);
  EXPECT_EQ(SeriesValue(after, rounds) - SeriesValue(before, rounds),
            to_verify);
}

// Requests of `kind` each shard has executed so far.
std::vector<uint64_t> KindCounts(ShardSet<2>& set, QueryKind kind) {
  std::vector<uint64_t> counts;
  for (uint32_t s = 0; s < set.num_shards(); ++s) {
    counts.push_back(set.shard(s).KindQueryCount(kind));
  }
  return counts;
}

TEST(AdvancedShardTest, ApproxKnnRunsOnlyTheShardsS3Keeps) {
  // The first shard's reported k-th distance is a real object's, so a
  // shard whose extent lies beyond it holds nothing the true top k needs.
  // At a tile centre that prunes every other shard; where the tiles meet,
  // the others run. Either way every rank keeps (1+eps).
  const auto data = MakeData(1200);
  auto set = ShardSet<2>::Build(data, SetOptions(4, false, ""));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());
  const std::vector<Rect<2>> extents = (*set)->extents();
  uint64_t pruned = 0;
  for (double eps : {0.0, 0.5}) {
    for (uint32_t target = 0; target <= extents.size(); ++target) {
      // The last query sits where the tiles meet.
      const bool corner = target == extents.size();
      const Point2 q = corner ? Point2{{0.5, 0.5}} : extents[target].Center();
      SCOPED_TRACE("eps=" + std::to_string(eps) +
                   " target=" + std::to_string(target));
      const std::vector<uint64_t> before =
          KindCounts(**set, QueryKind::kApproxKnn);
      QueryResponse<2> got =
          router.Execute(QueryRequest<2>::ApproxKnn(q, 10, eps));
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      const std::vector<uint64_t> after =
          KindCounts(**set, QueryKind::kApproxKnn);
      uint32_t ran = 0;
      for (uint32_t s = 0; s < extents.size(); ++s) {
        ran += after[s] != before[s];
        if (!corner) {
          EXPECT_EQ(after[s] - before[s], s == target ? 1u : 0u)
              << "shard " << s;
        }
      }
      if (corner) {
        EXPECT_GT(ran, 1u);
      }
      pruned += extents.size() - ran;

      const auto exact = RefKnn<2>(data, q, 10);
      ASSERT_EQ(got.neighbors.size(), exact.size());
      const double factor = (1.0 + eps) * (1.0 + eps) * (1.0 + 1e-9);
      for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_LE(got.neighbors[i].dist_sq, exact[i].dist_sq * factor)
            << "rank " << i;
      }
    }
  }
  const std::string series =
      "spatial_router_shards_pruned_total{kind=\"approx-knn\"}";
  EXPECT_EQ(SeriesValue(router.ScrapeMetrics(), series), pruned);
}

}  // namespace
}  // namespace spatial
