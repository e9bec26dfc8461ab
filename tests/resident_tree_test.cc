// The resident tier's bit-identity gate: every answer, every visited node
// (in order), and every traversal counter produced over a compiled
// ResidentTree must match the paged path exactly — memcmp on the neighbor
// bytes, vector equality on the visit trace — across dimensions, k, both
// ABL execution paths (lazy heap and full sort), and both tree origins
// (in-memory and file-backed). Plus the serving lifecycle: a write
// invalidates the arena, queries fall back to the paged path, and
// RecompileResidentTier restores the fast path; the concurrent variant is
// a ThreadSanitizer target (tools/tsan_check.sh).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "db/serving_db.h"
#include "db/spatial_db.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "storage/resident_tree.h"
#include "test_util.h"
#include "wal/wal_writer.h"

namespace spatial {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void CleanupDb(const std::string& path) {
  std::remove(path.c_str());
  for (uint64_t s = 1; s <= 64; ++s) {
    std::remove(WalWriter::SegmentPath(path, s).c_str());
  }
}

void ExpectStatsEqual(const QueryStats& paged, const QueryStats& resident) {
  EXPECT_EQ(paged.nodes_visited, resident.nodes_visited);
  EXPECT_EQ(paged.leaf_nodes_visited, resident.leaf_nodes_visited);
  EXPECT_EQ(paged.internal_nodes_visited, resident.internal_nodes_visited);
  EXPECT_EQ(paged.abl_entries_generated, resident.abl_entries_generated);
  EXPECT_EQ(paged.pruned_s1, resident.pruned_s1);
  EXPECT_EQ(paged.estimate_updates_s2, resident.estimate_updates_s2);
  EXPECT_EQ(paged.pruned_s3, resident.pruned_s3);
  EXPECT_EQ(paged.pruned_leaf, resident.pruned_leaf);
  EXPECT_EQ(paged.objects_examined, resident.objects_examined);
  EXPECT_EQ(paged.distance_computations, resident.distance_computations);
  EXPECT_EQ(paged.heap_pushes, resident.heap_pushes);
  EXPECT_EQ(paged.heap_pops, resident.heap_pops);
}

// A D-dimensional STR-packed tree on a simulated disk plus its query set.
template <int D>
struct Workload {
  DiskManager disk{1024};
  BufferPool pool;
  std::optional<RTree<D>> tree;
  std::vector<Entry<D>> data;
  std::vector<Point<D>> queries;

  Workload(size_t n, size_t num_queries) : pool(&disk, 4096) {
    Rng rng(19950523);
    data = MakePointEntries(GenerateUniform<D>(n, UnitBounds<D>(), &rng));
    auto loaded =
        BulkLoad<D>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    tree.emplace(std::move(loaded).value());
    Rng qrng(777);
    queries = GenerateQueries<D>(data, num_queries,
                                 QueryDistribution::kUniform, 0.0, &qrng);
  }

  Result<ResidentTree<D>> Compile(
      typename ResidentTree<D>::Options options = {}) {
    return ResidentTree<D>::Compile(&pool, tree->root_page(), tree->size(),
                                    options);
  }
};

// The core gate: answers memcmp-identical, visit order identical, all
// traversal counters identical — for k in {1, 10} (k=1 activates the
// S1/S2 pruning paths) and both ABL execution strategies.
template <int D>
void CheckPagedResidentIdentity(const RTree<D>& tree,
                                const ResidentTree<D>& resident,
                                const std::vector<Point<D>>& queries) {
  QueryScratch<D> scratch_paged;
  QueryScratch<D> scratch_resident;
  std::vector<Neighbor> paged;
  std::vector<Neighbor> res;
  std::vector<uint64_t> trace_paged;
  std::vector<uint64_t> trace_resident;
  for (uint32_t k : {1u, 10u}) {
    for (bool full_sort : {false, true}) {
      KnnOptions options;
      options.k = k;
      options.force_full_sort = full_sort;
      for (const Point<D>& q : queries) {
        QueryStats stats_paged;
        QueryStats stats_resident;
        trace_paged.clear();
        trace_resident.clear();
        options.visit_trace = &trace_paged;
        ASSERT_TRUE(KnnSearchInto<D>(tree, q, options, &scratch_paged,
                                     &paged, &stats_paged)
                        .ok());
        options.visit_trace = &trace_resident;
        ASSERT_TRUE(KnnSearchInto<D>(resident, q, options, &scratch_resident,
                                     &res, &stats_resident)
                        .ok());
        options.visit_trace = nullptr;
        ASSERT_EQ(paged.size(), res.size()) << "D=" << D << " k=" << k;
        if (!paged.empty()) {
          ASSERT_EQ(std::memcmp(paged.data(), res.data(),
                                paged.size() * sizeof(Neighbor)),
                    0)
              << "answers diverge at D=" << D << " k=" << k
              << " full_sort=" << full_sort;
        }
        ASSERT_EQ(trace_paged, trace_resident)
            << "visit order diverges at D=" << D << " k=" << k
            << " full_sort=" << full_sort;
        ExpectStatsEqual(stats_paged, stats_resident);
      }
    }
  }
}

template <int D>
void RunBitIdentity() {
  Workload<D> w(3000, 48);
  auto resident = w.Compile();
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  EXPECT_GT(resident->node_count(), 0u);
  EXPECT_GT(resident->arena_bytes(), 0u);
  EXPECT_EQ(resident->size(), w.tree->size());
  EXPECT_EQ(resident->root_page(), w.tree->root_page());
  CheckPagedResidentIdentity<D>(*w.tree, *resident, w.queries);
}

TEST(ResidentTreeTest, BitIdenticalToPagedPath2D) { RunBitIdentity<2>(); }
TEST(ResidentTreeTest, BitIdenticalToPagedPath3D) { RunBitIdentity<3>(); }
TEST(ResidentTreeTest, BitIdenticalToPagedPath4D) { RunBitIdentity<4>(); }

TEST(ResidentTreeTest, FileBackedOriginIsBitIdentical) {
  const std::string path = TempPath("resident_origin.sdb");
  std::remove(path.c_str());
  Workload<2> reference(2000, 32);
  {
    SpatialDb<2>::Options options;
    options.page_size = 1024;
    auto db = SpatialDb<2>::CreateOnFile(path, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->BulkLoadData(reference.data, BulkLoadMethod::kStr).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto db = SpatialDb<2>::OpenFromFileReadOnly(path, 1024, 256);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto resident = ResidentTree<2>::Compile(
      db->tree().pool(), db->tree().root_page(), db->tree().size(), {});
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  CheckPagedResidentIdentity<2>(db->tree(), *resident, reference.queries);
  std::remove(path.c_str());
}

TEST(ResidentTreeTest, IncrementalAndBestFirstMatchPagedPath) {
  Workload<2> w(2000, 16);
  auto resident = w.Compile();
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();

  QueryScratch<2> scratch_paged;
  QueryScratch<2> scratch_resident;
  for (const Point2& q : w.queries) {
    QueryStats stats_paged;
    QueryStats stats_resident;
    IncrementalKnn<2> paged(*w.tree, q, &scratch_paged, &stats_paged);
    IncrementalKnn<2> res(*resident, q, &scratch_resident, &stats_resident);
    for (int i = 0; i < 32; ++i) {
      auto a = paged.Next();
      auto b = res.Next();
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->has_value(), b->has_value());
      if (!a->has_value()) break;
      EXPECT_EQ((*a)->id, (*b)->id);
      EXPECT_EQ((*a)->dist_sq, (*b)->dist_sq);
    }
    ExpectStatsEqual(stats_paged, stats_resident);

    auto bf_paged = BestFirstKnn<2>(*w.tree, q, 10, nullptr);
    auto bf_res = BestFirstKnn<2>(*resident, q, 10, nullptr);
    ASSERT_TRUE(bf_paged.ok() && bf_res.ok());
    ASSERT_EQ(bf_paged->size(), bf_res->size());
    ASSERT_EQ(std::memcmp(bf_paged->data(), bf_res->data(),
                          bf_paged->size() * sizeof(Neighbor)),
              0);
  }
}

TEST(ResidentTreeTest, EmptyTreeCompilesToEmptyResidentTree) {
  DiskManager disk(1024);
  BufferPool pool(&disk, 16);
  auto tree = RTree<2>::Create(&pool, RTreeOptions{});
  ASSERT_TRUE(tree.ok());
  auto resident =
      ResidentTree<2>::Compile(&pool, tree->root_page(), tree->size(), {});
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  EXPECT_TRUE(resident->empty());
  EXPECT_EQ(resident->node_count(), 0u);
  EXPECT_EQ(resident->arena_bytes(), 0u);

  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  KnnOptions options;
  options.k = 3;
  ASSERT_TRUE(
      KnnSearchInto<2>(*resident, Point2{{0.5, 0.5}}, options, &scratch,
                       &out, nullptr)
          .ok());
  EXPECT_TRUE(out.empty());
}

TEST(ResidentTreeTest, ArenaCapReturnsResourceExhausted) {
  Workload<2> w(2000, 1);
  typename ResidentTree<2>::Options options;
  options.max_arena_bytes = 64;  // far below any real arena
  options.source_epoch = 42;
  auto capped = w.Compile(options);
  ASSERT_FALSE(capped.ok());
  EXPECT_TRUE(capped.status().IsResourceExhausted())
      << capped.status().ToString();

  options.max_arena_bytes = 0;  // no cap
  auto resident = w.Compile(options);
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident->source_epoch(), 42u);
}

// Read-only service: the tier compiles at startup and serves every
// eligible query; answers match the paged tree and nothing falls back.
TEST(ResidentTreeTest, ReadOnlyServiceServesFromResidentTier) {
  Workload<2> w(2000, 0);
  SpatialDb<2>::Options db_options;
  db_options.page_size = 1024;
  auto db = SpatialDb<2>::CreateInMemory(db_options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->BulkLoadData(w.data, BulkLoadMethod::kStr).ok());

  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_NE((*service)->resident_tree(), nullptr);

  QueryScratch<2> scratch;
  std::vector<Neighbor> expected;
  Rng rng(31337);
  constexpr int kQueries = 40;
  for (int i = 0; i < kQueries; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    QueryResponse<2> got = (*service)->Execute(QueryRequest<2>::Knn(q, 5));
    ASSERT_TRUE(got.ok());
    KnnOptions knn;
    knn.k = 5;
    ASSERT_TRUE(
        KnnSearchInto<2>(db->tree(), q, knn, &scratch, &expected, nullptr)
            .ok());
    ASSERT_EQ(got.neighbors.size(), expected.size());
    ASSERT_EQ(std::memcmp(got.neighbors.data(), expected.data(),
                          expected.size() * sizeof(Neighbor)),
              0);
  }
  // Range queries are not resident-eligible and must not be counted.
  Rect<2> window = Rect<2>::FromCorners({{0.4, 0.4}}, {{0.6, 0.6}});
  ASSERT_TRUE((*service)->Execute(QueryRequest<2>::Range(window)).ok());

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.resident_hits, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.resident_fallbacks, 0u);
  EXPECT_EQ(stats.resident_compiles, 1u);
  EXPECT_GT(stats.resident_arena_bytes, 0u);
  const std::string scrape = (*service)->ScrapeMetrics();
  EXPECT_NE(scrape.find("spatial_resident_arena_bytes"), std::string::npos);
  EXPECT_NE(scrape.find("tier=\"resident\""), std::string::npos);
}

// Serving mode: a write publishes a new tree version, which must drop the
// arena and push queries onto the paged path; RecompileResidentTier brings
// the fast path back with answers that match a brute-force reference.
TEST(ResidentTreeTest, ServingWriteInvalidatesAndRecompileRestores) {
  const std::string path = TempPath("resident_serving.sdb");
  CleanupDb(path);

  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service = QueryService<2>::OpenServing(path, ServingOptions{}, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Load via the write path: every batch publish invalidates the arena.
  Rng rng(555);
  std::vector<Entry<2>> live;
  std::vector<std::future<QueryResponse<2>>> pending;
  for (uint64_t id = 1; id <= 300; ++id) {
    Rect<2> r;
    r.lo[0] = rng.Uniform(0.0, 1.0);
    r.lo[1] = rng.Uniform(0.0, 1.0);
    r.hi[0] = r.lo[0];
    r.hi[1] = r.lo[1];
    pending.push_back((*service)->Submit(QueryRequest<2>::Insert(r, id)));
    live.push_back(Entry<2>{r, id});
  }
  for (auto& f : pending) ASSERT_TRUE(f.get().ok());

  // The startup arena (compiled from the empty tree) is now stale: these
  // queries must fall back, not serve stale answers.
  constexpr int kQueries = 20;
  Rng qrng(556);
  std::vector<Point2> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back({{qrng.Uniform(0.0, 1.0), qrng.Uniform(0.0, 1.0)}});
    QueryResponse<2> got =
        (*service)->Execute(QueryRequest<2>::Knn(queries.back(), 5));
    ASSERT_TRUE(got.ok());
    ExpectKnnMatchesBruteForce(live, queries.back(), 5, got.neighbors);
  }
  ServiceStats stats = (*service)->Snapshot();
  EXPECT_GE(stats.resident_fallbacks, static_cast<uint64_t>(kQueries));
  EXPECT_GE(stats.resident_invalidations, 1u);
  const uint64_t hits_before = stats.resident_hits;

  ASSERT_TRUE((*service)->RecompileResidentTier().ok());
  for (const Point2& q : queries) {
    QueryResponse<2> got = (*service)->Execute(QueryRequest<2>::Knn(q, 5));
    ASSERT_TRUE(got.ok());
    ExpectKnnMatchesBruteForce(live, q, 5, got.neighbors);
  }
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.resident_hits, hits_before + kQueries);
  EXPECT_GE(stats.resident_compiles, 2u);
  EXPECT_GT(stats.resident_arena_bytes, 0u);

  (*service)->Shutdown();
  CleanupDb(path);
}

// ThreadSanitizer target: queries, writes, checkpoints, and recompiles all
// running concurrently. Correctness here is "every query succeeds and the
// service stays consistent" — per-query answers are validated against a
// pinned snapshot by the serving stress suite; this test crosses the
// resident tier's publish/invalidate/fallback synchronization points.
TEST(ResidentTreeTest, ConcurrentRecompileUnderWriteLoad) {
  const std::string path = TempPath("resident_concurrent.sdb");
  CleanupDb(path);

  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service = QueryService<2>::OpenServing(path, ServingOptions{}, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_failures{0};

  std::thread writer([&] {
    Rng rng(91);
    std::vector<std::future<QueryResponse<2>>> pending;
    for (uint64_t id = 1; id <= 200; ++id) {
      Rect<2> r;
      r.lo[0] = rng.Uniform(0.0, 1.0);
      r.lo[1] = rng.Uniform(0.0, 1.0);
      r.hi[0] = r.lo[0];
      r.hi[1] = r.lo[1];
      pending.push_back((*service)->Submit(QueryRequest<2>::Insert(r, id)));
      if (id % 50 == 0) {
        pending.push_back((*service)->Submit(QueryRequest<2>::Checkpoint()));
      }
    }
    for (auto& f : pending) {
      if (!f.get().ok()) ++query_failures;
    }
    stop.store(true);
  });

  std::thread recompiler([&] {
    while (!stop.load()) {
      // May legitimately race a concurrent publish; the result is either a
      // fresh arena or a benign stale one that no query will trust.
      (void)(*service)->RecompileResidentTier();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(7000 + t);
      while (!stop.load()) {
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        if (!(*service)->Execute(QueryRequest<2>::Knn(q, 3)).ok()) {
          ++query_failures;
        }
      }
    });
  }

  writer.join();
  recompiler.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(query_failures.load(), 0u);

  (*service)->Shutdown();
  CleanupDb(path);
}

}  // namespace
}  // namespace spatial
