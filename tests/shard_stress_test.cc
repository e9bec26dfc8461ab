// Concurrency stress for the scatter-gather path, built for TSan
// (tools/tsan_check.sh): many threads drive one ShardRouter — kNN, ranges,
// batches — while another thread scrapes the merged metrics document
// continuously. Every kNN answer is checked byte-identical against a
// single-tree reference, so a data race that corrupts a plan or a merge
// shows up even without TSan. A second case races inserts that grow the
// shard extents against readers of every kind that prunes shards by those
// extents: kNN, range, constrained kNN, top-k and approximate kNN.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "db/spatial_db.h"
#include "geom/metrics.h"
#include "shard/shard_router.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeData(size_t n) {
  Rng rng(4242);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

TEST(ShardStressTest, ConcurrentScatterGatherWithLiveScraping) {
  const auto data = MakeData(4000);

  // One private reference tree per client thread: the core library (and
  // a SpatialDb's single BufferPool) is single-threaded by design, so
  // the reference lookups must not share one pool across threads.
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<SpatialDb<2>>> references;
  for (int t = 0; t < kThreads; ++t) {
    SpatialDb<2>::Options db_options;
    db_options.page_size = 512;
    db_options.buffer_pages = 128;
    auto reference = SpatialDb<2>::CreateInMemory(db_options);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(reference->BulkLoadData(data, BulkLoadMethod::kStr).ok());
    references.push_back(
        std::make_unique<SpatialDb<2>>(std::move(*reference)));
  }

  ShardSet<2>::Options options;
  options.num_shards = 4;
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  constexpr int kQueriesPerThread = 150;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};

  // A scraper hammering the merged exposition (router counters, per-shard
  // collector walking live worker state, RPC families absent) while
  // queries run — the TSan target for the metrics path.
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string text = router.ScrapeMetrics();
      if (text.find("spatial_router_merge_ns") == std::string::npos) {
        mismatches.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      SpatialDb<2>& reference = *references[t];
      Rng rng(1000 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        const uint32_t k = 1 + static_cast<uint32_t>(i % 16);
        QueryResponse<2> got = router.Execute(QueryRequest<2>::Knn(q, k));
        if (!got.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        KnnOptions knn;
        knn.k = k;
        auto want = KnnSearch<2>(reference.tree(), q, knn, nullptr);
        if (!want.ok() || want->size() != got.neighbors.size() ||
            (!got.neighbors.empty() &&
             std::memcmp(got.neighbors.data(), want->data(),
                         got.neighbors.size() * sizeof(Neighbor)) != 0)) {
          mismatches.fetch_add(1);
        }
        if (i % 10 == 0) {
          const Rect<2> window = Rect<2>::FromCorners(
              q, {{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}});
          QueryResponse<2> range =
              router.Execute(QueryRequest<2>::Range(window));
          if (!range.ok()) mismatches.fetch_add(1);
        }
        if (i % 25 == 0) {
          QueryResponse<2> batch = router.Execute(
              QueryRequest<2>::BatchKnn({q, {{0.5, 0.5}}}, 4));
          if (!batch.ok() || batch.batch_offsets.size() != 3) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true);
  scraper.join();

  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ShardStressTest, OutOfTileInsertsVisibleToKnnAfterAck) {
  const auto data = MakeData(2000);
  ShardSet<2>::Options options;
  options.num_shards = 4;
  options.serving = true;
  options.dir = ::testing::TempDir() + "/stress_extents";
  options.page_size = 512;
  options.buffer_pages = 64;
  options.service.num_workers = 2;
  options.service.frames_per_worker = 32;
  ASSERT_EQ(0, system(("mkdir -p " + options.dir).c_str()));
  auto set = ShardSet<2>::Build(data, options);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ShardRouter<2> router(set->get());

  // Every insert lies on a circle of radius 0.8 around the data's centre,
  // outside the unit square and so outside every initial tile. Sites are
  // 0.071 to 0.087 apart on the circle (the jitter breaks the mirror
  // symmetry that would tie distances); every data point is at least 0.093
  // from it.
  constexpr int kInserts = 64;
  constexpr uint64_t kFirstId = 1'000'000;
  Rng jitter(5);
  std::vector<Entry<2>> all = data;
  for (int i = 0; i < kInserts; ++i) {
    const double angle =
        2.0 * M_PI * (i + 0.1 * jitter.Uniform(0.0, 1.0)) / kInserts;
    all.push_back({Rect<2>::FromPoint({{0.5 + 0.8 * std::cos(angle),
                                        0.5 + 0.8 * std::sin(angle)}}),
                   kFirstId + i});
  }
  const Entry<2>* sites = &all[data.size()];

  // The 2 nearest neighbors of each site once all are in: the site itself
  // and an adjacent site. As soon as both adjacent sites are acked, the
  // answer is final — no later site or data point comes closer. Adjacent
  // sites are routed to different shards wherever two grown extents meet,
  // so this answer also needs the readers to see every grown extent.
  std::vector<std::vector<Neighbor>> want(kInserts);
  for (int i = 0; i < kInserts; ++i) {
    const Point2 q = sites[i].mbr.lo;
    for (const Entry<2>& e : all) {
      want[i].push_back(Neighbor{e.id, ObjectDistSq<2>(q, e.mbr)});
    }
    std::sort(want[i].begin(), want[i].end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.dist_sq != b.dist_sq ? a.dist_sq < b.dist_sq
                                              : a.id < b.id;
              });
    ASSERT_LT(want[i][1].dist_sq, want[i][2].dist_sq) << i;  // no tie
    want[i].resize(2);
    ASSERT_EQ(want[i][0].id, kFirstId + i);
    const uint64_t next = kFirstId + (i + 1) % kInserts;
    const uint64_t prev = kFirstId + (i + kInserts - 1) % kInserts;
    ASSERT_TRUE(want[i][1].id == next || want[i][1].id == prev) << i;
  }

  std::atomic<int> acked{0};
  std::atomic<uint64_t> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      QueryResponse<2> ins =
          router.Execute(QueryRequest<2>::Insert(sites[i].mbr, sites[i].id));
      if (!ins.ok()) failures.fetch_add(1);
      acked.store(i + 1, std::memory_order_release);
    }
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(77 + t);
      int seen = 0;
      while (seen < kInserts) {
        seen = acked.load(std::memory_order_acquire);
        if (seen == 0) {
          std::this_thread::yield();
          continue;
        }
        // Every kind that prunes by extent finds the newest acked site:
        // kNN, top-k and approximate kNN at k=1 on it, and a constrained
        // kNN and a range over a box around it that holds no other object.
        const int newest = seen - 1;
        const Point2 site = sites[newest].mbr.lo;
        const Rect<2> box = Rect<2>::FromCorners(
            {{site[0] - 0.01, site[1] - 0.01}},
            {{site[0] + 0.01, site[1] + 0.01}});
        for (const QueryRequest<2>& read :
             {QueryRequest<2>::Knn(site, 1), QueryRequest<2>::TopK(site, 1),
              QueryRequest<2>::ApproxKnn(site, 1, 0.5),
              QueryRequest<2>::ConstrainedKnn(site, box, 1)}) {
          const QueryResponse<2> got = router.Execute(read);
          if (!got.ok() || got.neighbors.size() != 1 ||
              got.neighbors[0].id != sites[newest].id ||
              got.neighbors[0].dist_sq != 0.0) {
            failures.fetch_add(1);
          }
        }
        const QueryResponse<2> range =
            router.Execute(QueryRequest<2>::Range(box));
        if (!range.ok() || range.entries.size() != 1 ||
            range.entries[0].id != sites[newest].id) {
          failures.fetch_add(1);
        }
        // k=2 at an older site whose adjacent sites are both acked.
        if (seen < 3) continue;
        const int i = 1 + static_cast<int>(rng.NextBounded(seen - 2));
        QueryResponse<2> got =
            router.Execute(QueryRequest<2>::Knn(sites[i].mbr.lo, 2));
        if (!got.ok() || got.neighbors.size() != 2 ||
            std::memcmp(got.neighbors.data(), want[i].data(),
                        2 * sizeof(Neighbor)) != 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0u);

  // Quiescent: every site's answer is final.
  for (int i = 0; i < kInserts; ++i) {
    QueryResponse<2> got =
        router.Execute(QueryRequest<2>::Knn(sites[i].mbr.lo, 2));
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ASSERT_EQ(got.neighbors.size(), 2u);
    EXPECT_EQ(0, std::memcmp(got.neighbors.data(), want[i].data(),
                             2 * sizeof(Neighbor)))
        << "site " << i;
  }
}

}  // namespace
}  // namespace spatial
