// Scatter-gather correctness: for every shard count and backend, the
// router's merged answers must be byte-identical (memcmp) to the same
// query against one tree holding the whole dataset. Also covers write
// routing (insert to one shard, delete broadcast) through the serving
// backend, each read kind's routing rule (kNN, top-k, approximate and
// constrained kNN: nearest extent first, other shards pruned by S3 on
// their extents with a non-strict boundary; constrained kNN and range:
// extents that miss the window skipped; extents grown by acked inserts
// only), and that every kind's round trips reach the router trace log.

#include "shard/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/constrained.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "db/spatial_db.h"
#include "geom/metrics.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeData(size_t n, uint64_t seed = 99) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

// The router's deterministic order: (dist_sq, id). Random-double data has
// no distance ties, so this is also the unique sorted-by-distance order
// the single tree produces.
std::vector<Neighbor> Normalized(std::vector<Neighbor> v) {
  std::sort(v.begin(), v.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.dist_sq != b.dist_sq ? a.dist_sq < b.dist_sq : a.id < b.id;
  });
  return v;
}

void ExpectByteIdentical(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Neighbor)));
  }
}

void ExpectEntriesByteIdentical(std::vector<Entry<2>> got,
                                std::vector<Entry<2>> want) {
  auto by_id = [](const Entry<2>& a, const Entry<2>& b) {
    return a.id < b.id;
  };
  std::sort(want.begin(), want.end(), by_id);  // got is already id-sorted
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Entry<2>)));
  }
}

// The whole dataset in one tree — the answer the shards must reproduce.
Result<SpatialDb<2>> MakeReference(const std::vector<Entry<2>>& data) {
  SpatialDb<2>::Options options;
  options.page_size = 512;
  options.buffer_pages = 128;
  SPATIAL_ASSIGN_OR_RETURN(SpatialDb<2> db,
                           SpatialDb<2>::CreateInMemory(options));
  SPATIAL_RETURN_IF_ERROR(db.BulkLoadData(data, BulkLoadMethod::kStr));
  return db;
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

void RunEquivalenceSuite(uint32_t shards, bool file_backed) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " file=" + std::to_string(file_backed));
  const auto data = MakeData(3000);
  auto reference = MakeReference(data);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  auto set = ShardSet<2>::Build(
      data, SetOptions(shards, file_backed, ::testing::TempDir()));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};

    for (uint32_t k : {1u, 5u, 17u}) {
      KnnOptions knn;
      knn.k = k;
      auto want = KnnSearch<2>(reference->tree(), q, knn, nullptr);
      ASSERT_TRUE(want.ok());
      QueryResponse<2> got = router.Execute(QueryRequest<2>::Knn(q, k));
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      ExpectByteIdentical(got.neighbors, Normalized(*want));
    }

    // Range window around the query point.
    const Point2 corner{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    const Rect<2> window = Rect<2>::FromCorners(q, corner);
    std::vector<Entry<2>> want_entries;
    ASSERT_TRUE(reference->tree().Search(window, &want_entries).ok());
    QueryResponse<2> got_range = router.Execute(QueryRequest<2>::Range(window));
    ASSERT_TRUE(got_range.ok());
    ExpectEntriesByteIdentical(got_range.entries, want_entries);

    // Constrained kNN in the same window (q sits on its corner).
    for (uint32_t k : {1u, 5u, 17u}) {
      KnnOptions knn;
      knn.k = k;
      auto want = ConstrainedKnnSearch<2>(reference->tree(), q, window, knn,
                                          nullptr);
      ASSERT_TRUE(want.ok());
      QueryResponse<2> got = router.Execute(
          QueryRequest<2>::ConstrainedKnn(q, window, k));
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      ExpectByteIdentical(got.neighbors, Normalized(*want));
    }

    // Incremental top-k.
    std::vector<Neighbor> want_topk;
    IncrementalKnn<2> inc(reference->tree(), q, nullptr);
    for (int j = 0; j < 10; ++j) {
      auto next = inc.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      want_topk.push_back(**next);
    }
    QueryResponse<2> got_topk = router.Execute(QueryRequest<2>::TopK(q, 10));
    ASSERT_TRUE(got_topk.ok());
    ExpectByteIdentical(got_topk.neighbors, Normalized(want_topk));
  }

  // One batch covering several query points at once.
  std::vector<Point2> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back({{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
  }
  QueryResponse<2> got_batch =
      router.Execute(QueryRequest<2>::BatchKnn(batch, 5));
  ASSERT_TRUE(got_batch.ok());
  ASSERT_EQ(got_batch.batch_offsets.size(), batch.size() + 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    KnnOptions knn;
    knn.k = 5;
    auto want = KnnSearch<2>(reference->tree(), batch[i], knn, nullptr);
    ASSERT_TRUE(want.ok());
    std::vector<Neighbor> got(
        got_batch.neighbors.begin() + got_batch.batch_offsets[i],
        got_batch.neighbors.begin() + got_batch.batch_offsets[i + 1]);
    ExpectByteIdentical(got, Normalized(*want));
  }
}

TEST(ShardRouterTest, MemoryBackendMatchesSingleTree) {
  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    RunEquivalenceSuite(shards, /*file_backed=*/false);
  }
}

TEST(ShardRouterTest, FileBackendMatchesSingleTree) {
  for (uint32_t shards : {1u, 4u}) {
    RunEquivalenceSuite(shards, /*file_backed=*/true);
  }
}

TEST(ShardRouterTest, ServingBackendRoutesWrites) {
  const auto data = MakeData(800);
  auto options = SetOptions(4, true, ::testing::TempDir() + "/serve");
  options.serving = true;
  ASSERT_EQ(0, system(("mkdir -p " + options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  // Insert lands in exactly one shard and becomes visible to kNN.
  const Point2 p{{0.31, 0.62}};
  QueryResponse<2> ins = router.Execute(
      QueryRequest<2>::Insert(Rect<2>::FromPoint(p), 1'000'000));
  ASSERT_TRUE(ins.ok()) << ins.status.ToString();
  EXPECT_EQ(ins.affected, 1u);

  QueryResponse<2> nn = router.Execute(QueryRequest<2>::Knn(p, 1));
  ASSERT_TRUE(nn.ok());
  ASSERT_EQ(nn.neighbors.size(), 1u);
  EXPECT_EQ(nn.neighbors[0].id, 1'000'000u);
  EXPECT_EQ(nn.neighbors[0].dist_sq, 0.0);

  // Delete broadcasts; exactly the one shard holding the object reports a
  // match.
  QueryResponse<2> del = router.Execute(
      QueryRequest<2>::Delete(Rect<2>::FromPoint(p), 1'000'000));
  ASSERT_TRUE(del.ok()) << del.status.ToString();
  EXPECT_EQ(del.affected, 1u);

  QueryResponse<2> gone = router.Execute(QueryRequest<2>::Knn(p, 1));
  ASSERT_TRUE(gone.ok());
  ASSERT_TRUE(gone.neighbors.empty() || gone.neighbors[0].id != 1'000'000u);

  // Checkpoint broadcasts to every shard.
  QueryResponse<2> ckpt = router.Execute(QueryRequest<2>::Checkpoint());
  EXPECT_TRUE(ckpt.ok()) << ckpt.status.ToString();
}

// The exact answer over `data` in the router's (dist_sq, id) order.
std::vector<Neighbor> BruteForceKnn(const std::vector<Entry<2>>& data,
                                    const Point2& q, uint32_t k) {
  std::vector<Neighbor> all;
  all.reserve(data.size());
  for (const Entry<2>& e : data) {
    all.push_back(Neighbor{e.id, ObjectDistSq<2>(q, e.mbr)});
  }
  all = Normalized(std::move(all));
  if (all.size() > k) all.resize(k);
  return all;
}

// The objects of `data` that meet `window`.
std::vector<Entry<2>> BruteForceRange(const std::vector<Entry<2>>& data,
                                      const Rect<2>& window) {
  std::vector<Entry<2>> inside;
  for (const Entry<2>& e : data) {
    if (e.mbr.Intersects(window)) inside.push_back(e);
  }
  return inside;
}

// A square of half-width `r` around `p`.
Rect<2> Box(const Point2& p, double r) {
  return Rect<2>::FromCorners({{p[0] - r, p[1] - r}}, {{p[0] + r, p[1] + r}});
}

// Requests of `kind` each shard has executed so far.
std::vector<uint64_t> KindCounts(ShardSet<2>& set, QueryKind kind) {
  std::vector<uint64_t> counts;
  for (uint32_t s = 0; s < set.num_shards(); ++s) {
    counts.push_back(set.shard(s).KindQueryCount(kind));
  }
  return counts;
}

// Shards whose count moved between two KindCounts snapshots.
uint32_t ShardsRun(const std::vector<uint64_t>& before,
                   const std::vector<uint64_t>& after) {
  uint32_t moved = 0;
  for (size_t s = 0; s < before.size(); ++s) moved += after[s] != before[s];
  return moved;
}

// The router's pruned-visit count for `kind`.
std::string PrunedSample(QueryKind kind, uint64_t value) {
  return std::string("spatial_router_shards_pruned_total{kind=\"") +
         QueryKindName(kind) + "\"} " + std::to_string(value) + "\n";
}

TEST(ShardRouterTest, InteriorReadsRunOnOneShard) {
  // At the centre of a shard's extent the first shard's k-th distance
  // (kNN, top-k, approximate kNN) lies far closer than any other extent,
  // and a small window (constrained kNN, range) meets no other extent, so
  // exactly that shard runs. The skyline has no extent rule: every shard.
  const auto data = MakeData(3000);
  auto reference = MakeReference(data);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto set = ShardSet<2>::Build(data, SetOptions(4, false, ""));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  const std::vector<Rect<2>> extents = (*set)->extents();
  for (uint32_t target = 0; target < extents.size(); ++target) {
    const Point2 q = extents[target].Center();
    const Rect<2> window = Box(q, 0.02);
    const QueryRequest<2> reads[] = {
        QueryRequest<2>::Knn(q, 3),
        QueryRequest<2>::TopK(q, 3),
        QueryRequest<2>::ApproxKnn(q, 3, 0.5),
        QueryRequest<2>::ConstrainedKnn(q, window, 3),
        QueryRequest<2>::Range(window),
        QueryRequest<2>::NnSkyline({q}),
    };
    for (const QueryRequest<2>& read : reads) {
      SCOPED_TRACE("target shard " + std::to_string(target) + " " +
                   QueryKindName(read.kind));
      const std::vector<uint64_t> before = KindCounts(**set, read.kind);
      QueryResponse<2> got = router.Execute(read);
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      const std::vector<uint64_t> after = KindCounts(**set, read.kind);
      const bool every_shard = read.kind == QueryKind::kNnSkyline;
      for (uint32_t s = 0; s < extents.size(); ++s) {
        EXPECT_EQ(after[s] - before[s], every_shard || s == target ? 1u : 0u)
            << "shard " << s;
      }

      const std::vector<Neighbor> nearest = BruteForceKnn(data, q, 3);
      switch (read.kind) {
        case QueryKind::kKnn:
        case QueryKind::kTopK:
          ExpectByteIdentical(got.neighbors, nearest);
          break;
        case QueryKind::kApproxKnn:
          ASSERT_EQ(got.neighbors.size(), nearest.size());
          for (size_t i = 0; i < nearest.size(); ++i) {
            EXPECT_LE(got.neighbors[i].dist_sq,
                      nearest[i].dist_sq * 1.5 * 1.5 * (1.0 + 1e-9));
          }
          break;
        case QueryKind::kConstrainedKnn: {
          KnnOptions knn;
          knn.k = 3;
          auto want = ConstrainedKnnSearch<2>(reference->tree(), q, window,
                                              knn, nullptr);
          ASSERT_TRUE(want.ok());
          ExpectByteIdentical(got.neighbors, Normalized(*want));
          break;
        }
        case QueryKind::kRange: {
          std::vector<Entry<2>> want;
          ASSERT_TRUE(reference->tree().Search(window, &want).ok());
          ExpectEntriesByteIdentical(got.entries, want);
          break;
        }
        default:
          break;
      }
    }
  }
  const std::string scrape = router.ScrapeMetrics();
  const uint64_t pruned = 3 * extents.size();
  for (QueryKind kind : {QueryKind::kKnn, QueryKind::kTopK,
                         QueryKind::kApproxKnn, QueryKind::kConstrainedKnn,
                         QueryKind::kRange}) {
    EXPECT_NE(scrape.find(PrunedSample(kind, pruned)), std::string::npos)
        << QueryKindName(kind);
  }
  EXPECT_NE(scrape.find(PrunedSample(QueryKind::kNnSkyline, 0)),
            std::string::npos);
}

TEST(ShardRouterTest, TiedExtentAtKthDistanceStillRuns) {
  // Two shards: a left half with x in [0, 0.25] and a right half with x in
  // [0.75, 1], so the query (0.5, 0.5) is at MINDIST 0.25 from both
  // extents. Each holds an object at exactly that distance; the lower id
  // sits in shard 1, which runs second. The shard-0 answer's k-th distance
  // equals shard 1's extent MINDIST, and the shard must still run for the
  // (dist_sq, id) merge to return the lower id, as a full scatter does.
  constexpr uint64_t kLeftTied = 1000;
  constexpr uint64_t kRightTied = 1;
  Rng rng(3);
  std::vector<Entry<2>> data;
  data.push_back({Rect<2>::FromPoint({{0.25, 0.5}}), kLeftTied});
  data.push_back({Rect<2>::FromPoint({{0.75, 0.5}}), kRightTied});
  for (uint64_t i = 0; i < 200; ++i) {
    const double x = rng.Uniform(0.0, 0.2);
    const double y = rng.Uniform(0.0, 1.0);
    data.push_back({Rect<2>::FromPoint({{x, y}}), 2000 + 2 * i});
    data.push_back({Rect<2>::FromPoint({{1.0 - x, y}}), 2001 + 2 * i});
  }
  const Point2 q{{0.5, 0.5}};
  const std::vector<Neighbor> want = BruteForceKnn(data, q, 1);
  ASSERT_EQ(want.size(), 1u);
  ASSERT_EQ(want[0].id, kRightTied);

  auto set = ShardSet<2>::Build(data, SetOptions(2, false, ""));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const std::vector<Rect<2>> extents = (*set)->extents();
  ASSERT_EQ(extents[0].hi[0], 0.25);
  ASSERT_EQ(extents[1].lo[0], 0.75);
  ASSERT_EQ(MinDistSq<2>(q, extents[0]), MinDistSq<2>(q, extents[1]));
  ShardRouter<2> router(set->get());

  // Every kind S3 prunes, at k = 1: approximate kNN at epsilon 0 (its
  // route, with an exact answer to compare against) and constrained kNN
  // over a region that meets both extents.
  const QueryRequest<2> reads[] = {
      QueryRequest<2>::Knn(q, 1),
      QueryRequest<2>::TopK(q, 1),
      QueryRequest<2>::ApproxKnn(q, 1, 0.0),
      QueryRequest<2>::ConstrainedKnn(q, Box(q, 0.5), 1),
  };
  for (const QueryRequest<2>& read : reads) {
    SCOPED_TRACE(QueryKindName(read.kind));
    const std::vector<uint64_t> before = KindCounts(**set, read.kind);
    QueryResponse<2> got = router.Execute(read);
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ExpectByteIdentical(got.neighbors, want);
    const std::vector<uint64_t> after = KindCounts(**set, read.kind);
    EXPECT_EQ(after[0] - before[0], 1u);
    EXPECT_EQ(after[1] - before[1], 1u);
  }
}

TEST(ShardRouterTest, ConstrainedKnnKeysShardsByTheWholeExtent) {
  // Two shards split by MBR centre x. q = (0, 0.5); the region is x >= 0.5.
  // Shard 1 holds segment B from (0.3, 0.5) to (0.9, 0.5), which crosses
  // the region's edge toward q, so its extent reaches back to x = 0.3 and
  // overlaps shard 0's, which segment A from (0.1, 0.9) to (0.6, 0.9)
  // stretches to x = 0.6. Shard 0 runs first, and A is the only object of
  // it that meets the region: its k-th dist^2 is 0.17. B, at 0.09, is the
  // answer. Keyed by its whole extent (0.09) shard 1 runs; keyed by
  // extent ∩ region (0.25 > 0.17) it would be pruned and A returned.
  constexpr uint64_t kA = 500;
  constexpr uint64_t kB = 501;
  Rng rng(12);
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 100; ++i) {
    data.push_back({Rect<2>::FromPoint(
                        {{rng.Uniform(0.0, 0.2), rng.Uniform(0.0, 1.0)}}),
                    2 * i});
    data.push_back({Rect<2>::FromPoint(
                        {{rng.Uniform(0.8, 1.0), rng.Uniform(0.0, 1.0)}}),
                    2 * i + 1});
  }
  data.push_back({Rect<2>::FromCorners({{0.1, 0.9}}, {{0.6, 0.9}}), kA});
  data.push_back({Rect<2>::FromCorners({{0.3, 0.5}}, {{0.9, 0.5}}), kB});
  auto reference = MakeReference(data);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto set = ShardSet<2>::Build(data, SetOptions(2, false, ""));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  const Point2 q{{0.0, 0.5}};
  const Rect<2> region = Rect<2>::FromCorners({{0.5, 0.0}}, {{1.0, 1.0}});
  const std::vector<Rect<2>> extents = (*set)->extents();
  ASSERT_EQ(extents[0].hi[0], 0.6);
  ASSERT_EQ(extents[1].lo[0], 0.3);
  ASSERT_LT(MinDistSq<2>(q, extents[0]), MinDistSq<2>(q, extents[1]));
  const double first_kth = ObjectDistSq<2>(q, data[200].mbr);  // A
  ASSERT_LE(MinDistSq<2>(q, extents[1]), first_kth);
  ASSERT_GT(MinDistSq<2>(q, Rect<2>::Intersection(extents[1], region)),
            first_kth);

  KnnOptions knn;
  knn.k = 1;
  auto want =
      ConstrainedKnnSearch<2>(reference->tree(), q, region, knn, nullptr);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want->size(), 1u);
  ASSERT_EQ((*want)[0].id, kB);

  const std::vector<uint64_t> before =
      KindCounts(**set, QueryKind::kConstrainedKnn);
  QueryResponse<2> got =
      router.Execute(QueryRequest<2>::ConstrainedKnn(q, region, 1));
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ExpectByteIdentical(got.neighbors, *want);
  EXPECT_EQ(ShardsRun(before, KindCounts(**set, QueryKind::kConstrainedKnn)),
            2u);
}

TEST(ShardRouterTest, RangeVisitsOnlyExtentsThatMeetTheWindow) {
  const auto data = MakeData(3000);
  auto reference = MakeReference(data);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto set = ShardSet<2>::Build(data, SetOptions(4, false, ""));
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());
  const std::vector<Rect<2>> extents = (*set)->extents();

  // A window that meets no extent, and the empty window: shard 0 alone
  // validates the request and answers, empty.
  const Rect<2> nowhere = Rect<2>::FromCorners({{5.0, 5.0}}, {{6.0, 6.0}});
  for (const Rect<2>& window : {nowhere, Rect<2>::Empty()}) {
    const std::vector<uint64_t> before = KindCounts(**set, QueryKind::kRange);
    QueryResponse<2> got = router.Execute(QueryRequest<2>::Range(window));
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    EXPECT_TRUE(got.entries.empty());
    const std::vector<uint64_t> after = KindCounts(**set, QueryKind::kRange);
    for (uint32_t s = 0; s < extents.size(); ++s) {
      EXPECT_EQ(after[s] - before[s], s == 0 ? 1u : 0u) << "shard " << s;
    }
  }

  // A window touching the right-most extent only along its right edge
  // (closed intervals) still visits that shard, and finds the object that
  // defines the edge.
  uint32_t right = 0;
  for (uint32_t s = 1; s < extents.size(); ++s) {
    if (extents[s].hi[0] > extents[right].hi[0]) right = s;
  }
  const Rect<2>& e = extents[right];
  const Rect<2> edge{{{e.hi[0], e.lo[1]}}, {{e.hi[0] + 1.0, e.hi[1]}}};
  for (uint32_t s = 0; s < extents.size(); ++s) {
    ASSERT_EQ(extents[s].Intersects(edge), s == right) << "shard " << s;
  }
  const std::vector<uint64_t> before = KindCounts(**set, QueryKind::kRange);
  QueryResponse<2> got = router.Execute(QueryRequest<2>::Range(edge));
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  std::vector<Entry<2>> want;
  ASSERT_TRUE(reference->tree().Search(edge, &want).ok());
  ASSERT_FALSE(want.empty());
  ExpectEntriesByteIdentical(got.entries, want);
  const std::vector<uint64_t> after = KindCounts(**set, QueryKind::kRange);
  for (uint32_t s = 0; s < extents.size(); ++s) {
    EXPECT_EQ(after[s] - before[s], s == right ? 1u : 0u) << "shard " << s;
  }
}

TEST(ShardRouterTest, InsertsOutsideTilesStayReachable) {
  // Four quadrant clusters leave a cross-shaped gap between the tiles.
  Rng rng(8);
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 800; ++i) {
    const double x = rng.Uniform(0.0, 0.4) + (i % 2 == 0 ? 0.0 : 0.6);
    const double y = rng.Uniform(0.0, 0.4) + (i % 4 < 2 ? 0.0 : 0.6);
    data.push_back({Rect<2>::FromPoint({{x, y}}), i});
  }
  auto options = SetOptions(4, true, ::testing::TempDir() + "/extents");
  options.serving = true;
  ASSERT_EQ(0, system(("mkdir -p " + options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  // Outside every tile, and in the gaps between two (or four) tiles. Right
  // after its ack, every read kind that prunes by extent finds the insert:
  // the box around it holds no other object.
  const std::vector<Point2> inserts = {
      {{1.4, 0.5}}, {{-0.3, -0.2}}, {{0.5, 1.8}},
      {{0.5, 0.2}}, {{0.2, 0.5}},   {{0.5, 0.5}}};
  std::vector<Entry<2>> all = data;
  for (size_t i = 0; i < inserts.size(); ++i) {
    const Point2& p = inserts[i];
    const Entry<2> e{Rect<2>::FromPoint(p), 1'000'000 + i};
    QueryResponse<2> ins =
        router.Execute(QueryRequest<2>::Insert(e.mbr, e.id));
    ASSERT_TRUE(ins.ok()) << ins.status.ToString();
    all.push_back(e);

    const Rect<2> box = Box(p, 0.01);
    const QueryRequest<2> reads[] = {
        QueryRequest<2>::Knn(p, 1),
        QueryRequest<2>::TopK(p, 1),
        QueryRequest<2>::ApproxKnn(p, 1, 0.5),
        QueryRequest<2>::ConstrainedKnn(p, box, 1),
        QueryRequest<2>::Range(box),
    };
    for (const QueryRequest<2>& read : reads) {
      SCOPED_TRACE("insert " + std::to_string(i) + " " +
                   QueryKindName(read.kind));
      QueryResponse<2> got = router.Execute(read);
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      if (read.kind == QueryKind::kRange) {
        ASSERT_EQ(got.entries.size(), 1u);
        EXPECT_EQ(got.entries[0].id, e.id);
      } else {
        ASSERT_EQ(got.neighbors.size(), 1u);
        EXPECT_EQ(got.neighbors[0].id, e.id);
        EXPECT_EQ(got.neighbors[0].dist_sq, 0.0);
      }
    }
  }

  // Every exact kind at and near each insert matches brute force over the
  // whole data set.
  auto check = [&] {
    for (const Point2& p : inserts) {
      const Point2 near_a{{p[0] + 0.01, p[1] + 0.01}};
      const Point2 near_b{{p[0] - 0.02, p[1]}};
      for (const Point2& q : {p, near_a, near_b}) {
        const Rect<2> region = Box(q, 0.3);
        for (uint32_t k : {1u, 3u}) {
          SCOPED_TRACE("q=(" + std::to_string(q[0]) + "," +
                       std::to_string(q[1]) + ") k=" + std::to_string(k));
          const std::vector<Neighbor> want = BruteForceKnn(all, q, k);
          for (const QueryRequest<2>& read :
               {QueryRequest<2>::Knn(q, k), QueryRequest<2>::TopK(q, k),
                QueryRequest<2>::ApproxKnn(q, k, 0.0)}) {
            QueryResponse<2> got = router.Execute(read);
            ASSERT_TRUE(got.ok()) << got.status.ToString();
            ExpectByteIdentical(got.neighbors, want);
          }
          QueryResponse<2> got = router.Execute(
              QueryRequest<2>::ConstrainedKnn(q, region, k));
          ASSERT_TRUE(got.ok()) << got.status.ToString();
          ExpectByteIdentical(
              got.neighbors, BruteForceKnn(BruteForceRange(all, region), q, k));
        }
        QueryResponse<2> got = router.Execute(QueryRequest<2>::Range(region));
        ASSERT_TRUE(got.ok()) << got.status.ToString();
        ExpectEntriesByteIdentical(got.entries, BruteForceRange(all, region));
      }
    }
  };
  check();
  QueryResponse<2> ckpt = router.Execute(QueryRequest<2>::Checkpoint());
  ASSERT_TRUE(ckpt.ok()) << ckpt.status.ToString();
  check();
}

TEST(ShardRouterTest, RejectedInsertsLeaveExtentsAlone) {
  // An insert grows its shard's extent only once the shard acks it; a
  // rejected one must not widen the extent, which never shrinks.
  const auto data = MakeData(2000);
  auto options = SetOptions(4, true, ::testing::TempDir() + "/rejected");
  options.serving = true;
  ASSERT_EQ(0, system(("mkdir -p " + options.dir).c_str()));
  auto serving = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(serving.ok()) << serving.status().ToString();
  auto read_only = ShardSet<2>::Build(data, SetOptions(4, false, ""));
  ASSERT_TRUE(read_only.ok()) << read_only.status().ToString();

  const double inf = std::numeric_limits<double>::infinity();
  struct Probe {
    const char* what;
    ShardSet<2>* set;
    Rect<2> mbr;
  };
  const Probe probes[] = {
      {"lo above hi", serving->get(), Rect<2>{{{-5.0, -5.0}}, {{-6.0, -6.0}}}},
      {"read-only shards", read_only->get(), Rect<2>::FromPoint({{3.0, 3.0}})},
      {"infinite MBR", serving->get(), Rect<2>{{{-inf, -inf}}, {{inf, inf}}}},
  };
  for (const Probe& probe : probes) {
    SCOPED_TRACE(probe.what);
    ShardRouter<2> router(probe.set);
    const std::vector<Rect<2>> before = probe.set->extents();
    QueryResponse<2> ins =
        router.Execute(QueryRequest<2>::Insert(probe.mbr, 1'000'000));
    EXPECT_TRUE(ins.status.IsInvalidArgument()) << ins.status.ToString();
    EXPECT_EQ(probe.set->extents(), before);

    // A corner query still finds a data point, not the rejected object.
    QueryResponse<2> nn = router.Execute(QueryRequest<2>::Knn({{0.9, 0.9}}, 1));
    ASSERT_TRUE(nn.ok()) << nn.status.ToString();
    ASSERT_EQ(nn.neighbors.size(), 1u);
    EXPECT_NE(nn.neighbors[0].id, 1'000'000u);
  }
}

TEST(ShardRouterTest, EveryKindOffersItsRoundTripsToTheTraceLog) {
  const auto data = MakeData(2000);
  auto options = SetOptions(4, true, ::testing::TempDir() + "/traced");
  options.serving = true;
  ASSERT_EQ(0, system(("mkdir -p " + options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2>::Options router_options;
  router_options.slow_threshold_ns = 0;  // every round trip is captured
  router_options.slow_log_capacity = 1024;
  ShardRouter<2> router(set->get(), router_options);

  // Executes `request` and returns the trace-log entries it left, in
  // capture order.
  auto send = [&](const QueryRequest<2>& request) {
    const uint64_t first = router.trace_log().total_recorded();
    QueryResponse<2> response = router.Execute(request);
    EXPECT_TRUE(response.ok()) << response.status.ToString();
    std::vector<obs::RouterTraceRecord> entries;
    for (const obs::RouterTraceRecord& rec : router.trace_log().SlowEntries()) {
      if (rec.seq >= first) entries.push_back(rec);
    }
    return entries;
  };

  const Point2 q{{0.5, 0.5}};
  const Rect<2> window = Rect<2>::FromCorners({{0.3, 0.3}}, {{0.6, 0.7}});
  const QueryRequest<2> reads[] = {
      QueryRequest<2>::Knn(q, 3),
      QueryRequest<2>::ConstrainedKnn(q, window, 3),
      QueryRequest<2>::Range(window),
      QueryRequest<2>::TopK(q, 3),
      QueryRequest<2>::BatchKnn({q, {{0.1, 0.9}}}, 2),
      QueryRequest<2>::NnSkyline({q, {{0.2, 0.8}}}),
      QueryRequest<2>::ApproxKnn(q, 3, 0.5),
  };
  for (const QueryRequest<2>& read : reads) {
    SCOPED_TRACE(QueryKindName(read.kind));
    const std::vector<uint64_t> before = KindCounts(**set, read.kind);
    const std::vector<obs::RouterTraceRecord> entries = send(read);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_STREQ(entries[0].kind_name, QueryKindName(read.kind));
    EXPECT_EQ(entries[0].num_shards,
              ShardsRun(before, KindCounts(**set, read.kind)));
  }

  // A reverse kNN: its candidate round on every shard, then one kKnn
  // round per verified candidate.
  {
    const std::vector<uint64_t> before =
        KindCounts(**set, QueryKind::kReverseKnn);
    const std::vector<obs::RouterTraceRecord> entries =
        send(QueryRequest<2>::ReverseKnn(q, 1));
    ASSERT_GE(entries.size(), 2u);
    EXPECT_STREQ(entries[0].kind_name, "reverse-knn");
    EXPECT_EQ(entries[0].num_shards, 4u);
    EXPECT_EQ(ShardsRun(before, KindCounts(**set, QueryKind::kReverseKnn)),
              4u);
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_STREQ(entries[i].kind_name, "knn") << "entry " << i;
    }
  }

  // Writes: an insert runs on the one nearest shard, a delete and a
  // checkpoint on every shard.
  const Rect<2> mbr = Rect<2>::FromPoint({{0.52, 0.48}});
  const struct {
    QueryRequest<2> request;
    uint32_t shards;
  } writes[] = {{QueryRequest<2>::Insert(mbr, 1'000'000), 1},
                {QueryRequest<2>::Delete(mbr, 1'000'000), 4},
                {QueryRequest<2>::Checkpoint(), 4}};
  for (const auto& write : writes) {
    SCOPED_TRACE(QueryKindName(write.request.kind));
    const std::vector<obs::RouterTraceRecord> entries = send(write.request);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_STREQ(entries[0].kind_name, QueryKindName(write.request.kind));
    EXPECT_EQ(entries[0].num_shards, write.shards);
  }
}

TEST(ShardRouterTest, MetricsExposePerShardFamilies) {
  const auto data = MakeData(400);
  auto set = ShardSet<2>::Build(data, SetOptions(3, false, ""));
  ASSERT_TRUE(set.ok());
  ShardRouter<2> router(set->get());
  for (int i = 0; i < 5; ++i) {
    router.Execute(QueryRequest<2>::Knn({{0.5, 0.5}}, 3));
  }
  router.Execute(QueryRequest<2>::TopK({{0.5, 0.5}}, 2));
  const std::string scrape = router.ScrapeMetrics();
  // One labeled family, not per-kind metric names: hyphenated kind names
  // survive intact as label values (legal there, unlike in metric names).
  EXPECT_NE(scrape.find("spatial_router_requests_total{kind=\"knn\"} 5"),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_router_requests_total{kind=\"top-k\"} 1"),
            std::string::npos);
  EXPECT_EQ(scrape.find("spatial_router_requests_total_knn"),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_router_merge_ns"), std::string::npos);
  EXPECT_NE(scrape.find("spatial_shard_queries_total{shard=\"0\""),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_shard_queries_total{shard=\"2\""),
            std::string::npos);
  EXPECT_NE(scrape.find("spatial_shard_query_latency_ns"), std::string::npos);
}

}  // namespace
}  // namespace spatial
