// Behavior of the concurrent query service: every query kind must return
// exactly what the corresponding single-threaded call returns, stats must
// aggregate across workers, and lifecycle edges (shutdown, read-only
// database, invalid requests) must fail cleanly.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/constrained.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "storage/read_only_disk.h"
#include "wal/wal_writer.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<Entry<2>> MakeData(size_t n, uint64_t seed = 42) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

// An in-memory database, bulk-loaded and flushed, ready to serve.
Result<SpatialDb<2>> MakeServableDb(const std::vector<Entry<2>>& data) {
  SpatialDb<2>::Options options;
  options.page_size = 512;
  options.buffer_pages = 64;
  SPATIAL_ASSIGN_OR_RETURN(SpatialDb<2> db,
                           SpatialDb<2>::CreateInMemory(options));
  SPATIAL_RETURN_IF_ERROR(db.BulkLoadData(data, BulkLoadMethod::kStr));
  return db;
}

TEST(QueryServiceTest, KnnMatchesSingleThreadedSearch) {
  const auto data = MakeData(2000);
  auto db = MakeServableDb(data);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  QueryService<2>::Options options;
  options.num_workers = 3;
  options.frames_per_worker = 16;
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    KnnOptions knn;
    knn.k = 5;
    auto expected = KnnSearch<2>(db->tree(), q, knn, nullptr);
    ASSERT_TRUE(expected.ok());

    QueryResponse<2> got =
        (*service)->Execute(QueryRequest<2>::Knn(q, 5));
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ASSERT_EQ(got.neighbors.size(), expected->size());
    for (size_t j = 0; j < expected->size(); ++j) {
      EXPECT_EQ(got.neighbors[j].id, (*expected)[j].id);
      EXPECT_EQ(got.neighbors[j].dist_sq, (*expected)[j].dist_sq);
    }
    EXPECT_GT(got.stats.nodes_visited, 0u);
  }
}

TEST(QueryServiceTest, AllQueryKindsMatchDirectCalls) {
  const auto data = MakeData(1500);
  auto db = MakeServableDb(data);
  ASSERT_TRUE(db.ok());

  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok());

  const Point2 q{{0.4, 0.6}};
  const Rect2 region = Rect2::FromCorners({{0.2, 0.2}}, {{0.8, 0.8}});

  {  // constrained kNN
    KnnOptions knn;
    knn.k = 7;
    auto expected = ConstrainedKnnSearch<2>(db->tree(), q, region, knn,
                                            nullptr);
    ASSERT_TRUE(expected.ok());
    QueryResponse<2> got =
        (*service)->Execute(QueryRequest<2>::ConstrainedKnn(q, region, 7));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.neighbors.size(), expected->size());
    for (size_t j = 0; j < expected->size(); ++j) {
      EXPECT_EQ(got.neighbors[j].id, (*expected)[j].id);
      EXPECT_EQ(got.neighbors[j].dist_sq, (*expected)[j].dist_sq);
    }
  }
  {  // range
    std::vector<Entry<2>> expected;
    ASSERT_TRUE(db->tree().Search(region, &expected).ok());
    QueryResponse<2> got =
        (*service)->Execute(QueryRequest<2>::Range(region));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.entries.size(), expected.size());
  }
  {  // top-k via the incremental scan
    IncrementalKnn<2> scan(db->tree(), q, nullptr);
    std::vector<Neighbor> expected;
    for (int i = 0; i < 9; ++i) {
      auto next = scan.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      expected.push_back(**next);
    }
    QueryResponse<2> got = (*service)->Execute(QueryRequest<2>::TopK(q, 9));
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got.neighbors.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(got.neighbors[j].id, expected[j].id);
      EXPECT_EQ(got.neighbors[j].dist_sq, expected[j].dist_sq);
    }
  }
}

TEST(QueryServiceTest, StatsAggregateAcrossWorkers) {
  const auto data = MakeData(1000);
  auto db = MakeServableDb(data);
  ASSERT_TRUE(db.ok());

  QueryService<2>::Options options;
  options.num_workers = 4;
  options.frames_per_worker = 8;
  // This test asserts the paged path's page-access accounting; the
  // resident tier would answer without touching the buffer pools.
  options.resident_tier = false;
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok());

  constexpr int kQueries = 120;
  std::vector<std::future<QueryResponse<2>>> futures;
  Rng rng(99);
  for (int i = 0; i < kQueries; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    futures.push_back((*service)->Submit(QueryRequest<2>::Knn(q, 3)));
  }
  for (auto& f : futures) {
    ASSERT_TRUE(f.get().ok());
  }

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.queries_ok, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.latency.total_count, static_cast<uint64_t>(kQueries));
  // Every query touches at least the root: logical fetches ≥ queries.
  EXPECT_GE(stats.buffer.logical_fetches,
            static_cast<uint64_t>(kQueries));
  EXPECT_GT(stats.PageAccessesPerQuery(), 0.0);
  EXPECT_GT(stats.QueriesPerSecond(), 0.0);
  EXPECT_GT(stats.latency.Percentile(0.5), 0u);
  EXPECT_GE(stats.latency.Percentile(0.99),
            stats.latency.Percentile(0.5));
  // Per-query algorithm counters flowed through the workers.
  EXPECT_GE(stats.query.nodes_visited, static_cast<uint64_t>(kQueries));
  // With the tier disabled, no query may be counted against it.
  EXPECT_EQ(stats.resident_hits, 0u);
  EXPECT_EQ(stats.resident_fallbacks, 0u);
  EXPECT_EQ(stats.resident_compiles, 0u);

  (*service)->ResetStats();
  const ServiceStats zeroed = (*service)->Snapshot();
  EXPECT_EQ(zeroed.queries_ok, 0u);
  EXPECT_EQ(zeroed.buffer.logical_fetches, 0u);
  EXPECT_EQ(zeroed.latency.total_count, 0u);
}

TEST(QueryServiceTest, InvalidRequestsFailCleanly) {
  const auto data = MakeData(200);
  auto db = MakeServableDb(data);
  ASSERT_TRUE(db.ok());
  auto service = QueryService<2>::Attach(*db, {});
  ASSERT_TRUE(service.ok());

  QueryRequest<2> bad = QueryRequest<2>::Knn({{0.5, 0.5}}, 0);  // k = 0
  QueryResponse<2> got = (*service)->Execute(bad);
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status.IsInvalidArgument());

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.queries_failed, 1u);
}

TEST(QueryServiceTest, UncappedTopKReturnsEveryObject) {
  // top_k arrives from the wire with no cap; the drain must size nothing
  // by it, on either tier.
  const auto data = MakeData(300);
  auto db = MakeServableDb(data);
  ASSERT_TRUE(db.ok());
  for (bool resident : {false, true}) {
    SCOPED_TRACE(resident ? "resident" : "paged");
    QueryService<2>::Options options;
    options.num_workers = 1;
    options.resident_tier = resident;
    auto service = QueryService<2>::Attach(*db, options);
    ASSERT_TRUE(service.ok());
    const Point2 q{{0.3, 0.7}};
    QueryResponse<2> got = (*service)->Execute(
        QueryRequest<2>::TopK(q, std::numeric_limits<uint32_t>::max()));
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ExpectKnnMatchesBruteForce(data, q, static_cast<uint32_t>(data.size()),
                               got.neighbors);
  }
}

// Removes a serving-mode database file and its WAL segments.
void RemoveServingDb(const std::string& path) {
  std::remove(path.c_str());
  for (uint64_t s = 1; s <= 64; ++s) {
    std::remove(WalWriter::SegmentPath(path, s).c_str());
  }
}

// One well-formed request of each read kind; nullopt for the write kinds.
std::optional<QueryRequest<2>> ReadRequest(QueryKind kind) {
  const Point2 q{{0.4, 0.6}};
  const Point2 q2{{0.1, 0.9}};
  const Rect2 region = Rect2::FromCorners({{0.2, 0.2}}, {{0.8, 0.8}});
  switch (kind) {
    case QueryKind::kKnn:
      return QueryRequest<2>::Knn(q, 5);
    case QueryKind::kConstrainedKnn:
      return QueryRequest<2>::ConstrainedKnn(q, region, 5);
    case QueryKind::kRange:
      return QueryRequest<2>::Range(region);
    case QueryKind::kTopK:
      return QueryRequest<2>::TopK(q, 5);
    case QueryKind::kBatchKnn:
      return QueryRequest<2>::BatchKnn({q, q2}, 3);
    case QueryKind::kReverseKnn:
      return QueryRequest<2>::ReverseKnn(q, 2);
    case QueryKind::kNnSkyline:
      return QueryRequest<2>::NnSkyline({q, q2});
    case QueryKind::kApproxKnn:
      return QueryRequest<2>::ApproxKnn(q, 5, 0.5);
    case QueryKind::kInsert:
    case QueryKind::kDelete:
    case QueryKind::kCheckpoint:
      return std::nullopt;
  }
  return std::nullopt;
}

// spatial_resident_queries_total{kind, tier} in a metrics scrape (0 when
// the kind has no sample, as for kinds that are not resident-eligible).
uint64_t TierCount(const std::string& scrape, QueryKind kind,
                   const std::string& tier) {
  const std::string key = std::string("spatial_resident_queries_total") +
                          "{kind=\"" + QueryKindName(kind) + "\",tier=\"" +
                          tier + "\"} ";
  const size_t at = scrape.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(scrape.substr(at + key.size()));
}

// Runs one request of every read kind and checks that each moves exactly
// its own `tier` counter by 1 when the kind is resident-eligible, and no
// counter at all otherwise.
void ExpectReadKindsCountedOn(QueryService<2>* service,
                              const std::string& tier) {
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const QueryKind kind = static_cast<QueryKind>(k);
    const std::optional<QueryRequest<2>> request = ReadRequest(kind);
    if (!request.has_value()) continue;
    SCOPED_TRACE(QueryKindName(kind));
    const std::string before = service->ScrapeMetrics();
    const QueryResponse<2> got = service->Execute(*request);
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    const std::string after = service->ScrapeMetrics();
    for (int j = 0; j < kNumQueryKinds; ++j) {
      const QueryKind counted = static_cast<QueryKind>(j);
      for (const std::string t : {"resident", "paged"}) {
        const uint64_t want =
            counted == kind && t == tier && IsResidentEligible(kind) ? 1 : 0;
        EXPECT_EQ(
            TierCount(after, counted, t) - TierCount(before, counted, t),
            want)
            << QueryKindName(counted) << " tier=" << t;
      }
    }
  }
}

TEST(QueryServiceTest, EveryEligibleKindIsServedByTheResidentTier) {
  const auto data = MakeData(1500);
  auto db = MakeServableDb(data);
  ASSERT_TRUE(db.ok());
  auto service = QueryService<2>::Attach(*db, {});
  ASSERT_TRUE(service.ok());
  ASSERT_NE((*service)->resident_tree(), nullptr);
  ExpectReadKindsCountedOn(service->get(), "resident");
}

TEST(QueryServiceTest, EveryEligibleKindFallsBackWhenTheArenaIsStale) {
  const std::string path = TempPath("service_tier_fallback.sdb");
  RemoveServingDb(path);
  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service =
      QueryService<2>::OpenServing(path, ServingOptions{}, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // The startup arena holds the empty tree; these writes make it stale.
  std::vector<std::future<QueryResponse<2>>> pending;
  for (const Entry<2>& e : MakeData(300)) {
    pending.push_back(
        (*service)->Submit(QueryRequest<2>::Insert(e.mbr, e.id)));
  }
  for (auto& f : pending) ASSERT_TRUE(f.get().ok());
  ExpectReadKindsCountedOn(service->get(), "paged");

  (*service)->Shutdown();
  RemoveServingDb(path);
}

TEST(QueryServiceTest, InvalidWriteMbrFailsAloneInServingMode) {
  // kDelete carries its MBR in `window`, whose default is Rect::Empty();
  // such a write is answered at Submit and never joins a group commit.
  const std::string path = TempPath("service_bad_write.sdb");
  RemoveServingDb(path);
  auto service = QueryService<2>::OpenServing(path, ServingOptions{}, {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto bad_delete =
      (*service)->Submit(QueryRequest<2>::Delete(Rect<2>::Empty(), 7));
  auto bad_insert = (*service)->Submit(
      QueryRequest<2>::Insert(Rect<2>::FromPoint({{nan, 0.5}}), 8));
  auto good = (*service)->Submit(
      QueryRequest<2>::Insert(Rect<2>::FromPoint({{0.5, 0.5}}), 9));
  QueryResponse<2> del = bad_delete.get();
  EXPECT_TRUE(del.status.IsInvalidArgument()) << del.status.ToString();
  QueryResponse<2> ins = bad_insert.get();
  EXPECT_TRUE(ins.status.IsInvalidArgument()) << ins.status.ToString();
  QueryResponse<2> acked = good.get();
  ASSERT_TRUE(acked.ok()) << acked.status.ToString();
  EXPECT_EQ(acked.affected, 1u);
  QueryResponse<2> knn =
      (*service)->Execute(QueryRequest<2>::Knn({{0.5, 0.5}}, 5));
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn.neighbors.size(), 1u);
  EXPECT_EQ(knn.neighbors[0].id, 9u);
  (*service)->Shutdown();
  RemoveServingDb(path);
}

TEST(QueryServiceTest, InfiniteWriteMbrFailsAloneInServingMode) {
  // An MBR with an infinite bound covers a half plane or more, so every
  // kNN would find the object at distance 0; the write is refused before
  // it reaches the WAL and the next write is unaffected.
  const std::string path = TempPath("service_inf_write.sdb");
  RemoveServingDb(path);
  auto service = QueryService<2>::OpenServing(path, ServingOptions{}, {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const double inf = std::numeric_limits<double>::infinity();
  QueryResponse<2> plane = (*service)->Execute(
      QueryRequest<2>::Insert(Rect<2>{{{-inf, -inf}}, {{inf, inf}}}, 7));
  EXPECT_TRUE(plane.status.IsInvalidArgument()) << plane.status.ToString();
  QueryResponse<2> half = (*service)->Execute(QueryRequest<2>::Insert(
      Rect<2>::FromCorners({{0.2, 0.2}}, {{inf, 0.3}}), 8));
  EXPECT_TRUE(half.status.IsInvalidArgument()) << half.status.ToString();
  QueryResponse<2> acked = (*service)->Execute(
      QueryRequest<2>::Insert(Rect<2>::FromPoint({{0.5, 0.5}}), 9));
  ASSERT_TRUE(acked.ok()) << acked.status.ToString();
  EXPECT_EQ(acked.affected, 1u);
  QueryResponse<2> knn =
      (*service)->Execute(QueryRequest<2>::Knn({{0.9, 0.9}}, 5));
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn.neighbors.size(), 1u);
  EXPECT_EQ(knn.neighbors[0].id, 9u);
  (*service)->Shutdown();
  RemoveServingDb(path);
}

TEST(QueryServiceTest, SubmitAfterShutdownResolvesWithError) {
  const auto data = MakeData(100);
  auto db = MakeServableDb(data);
  ASSERT_TRUE(db.ok());
  auto service = QueryService<2>::Attach(*db, {});
  ASSERT_TRUE(service.ok());

  (*service)->Shutdown();
  auto future = (*service)->Submit(QueryRequest<2>::Knn({{0.1, 0.1}}, 1));
  QueryResponse<2> got = future.get();
  EXPECT_FALSE(got.ok());
  EXPECT_TRUE(got.status.IsInvalidArgument());
  (*service)->Shutdown();  // idempotent
}

// Shutdown races 4 threads looping on Execute over 2 contexts, so some
// calls run inline and some queue. Shutdown claims every context before it
// releases the reader slots: no query may run once it has returned, and
// every call answers OK or, once shut down, Submit's InvalidArgument.
TEST(QueryServiceTest, ShutdownWaitsOutInlineExecuteCallers) {
  const std::string path = TempPath("service_shutdown_inline.sdb");
  RemoveServingDb(path);
  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service =
      QueryService<2>::OpenServing(path, ServingOptions{}, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::vector<std::future<QueryResponse<2>>> pending;
  for (const Entry<2>& e : MakeData(200)) {
    pending.push_back(
        (*service)->Submit(QueryRequest<2>::Insert(e.mbr, e.id)));
  }
  for (auto& f : pending) ASSERT_TRUE(f.get().ok());

  constexpr int kThreads = 4;
  std::atomic<uint64_t> answered_ok{0};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      // Loops until the service answers that it is shut down.
      for (;;) {
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        const QueryResponse<2> got =
            (*service)->Execute(QueryRequest<2>::Knn(q, 4));
        if (got.ok()) {
          answered_ok.fetch_add(1);
        } else {
          if (!got.status.IsInvalidArgument()) unexpected.fetch_add(1);
          return;
        }
      }
    });
  }
  while (answered_ok.load() < 400) std::this_thread::yield();
  (*service)->Shutdown();
  const uint64_t ran = (*service)->Snapshot().TotalQueries();
  for (auto& t : threads) t.join();

  EXPECT_EQ(unexpected.load(), 0u);
  // Every query that ran finished before Shutdown returned, so none used a
  // released reader slot, and each one is an OK answer.
  EXPECT_EQ((*service)->Snapshot().TotalQueries(), ran);
  EXPECT_EQ(answered_ok.load(), ran);
  const QueryResponse<2> late =
      (*service)->Execute(QueryRequest<2>::Knn({{0.5, 0.5}}, 1));
  const QueryResponse<2> submitted =
      (*service)->Submit(QueryRequest<2>::Knn({{0.5, 0.5}}, 1)).get();
  EXPECT_TRUE(late.status.IsInvalidArgument());
  EXPECT_EQ(late.status.ToString(), submitted.status.ToString());
  RemoveServingDb(path);
}

TEST(QueryServiceTest, OpenServesFileBackedDatabaseReadOnly) {
  const std::string path = TempPath("service_open.sdb");
  const auto data = MakeData(800);
  {
    SpatialDb<2>::Options options;
    options.page_size = 512;
    auto db = SpatialDb<2>::CreateOnFile(path, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());
    ASSERT_TRUE(db->Flush().ok());
  }

  QueryService<2>::Options options;
  options.num_workers = 2;
  auto service = QueryService<2>::Open(path, 512, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE((*service)->db().read_only());

  const Point2 q{{0.25, 0.75}};
  QueryResponse<2> got = (*service)->Execute(QueryRequest<2>::Knn(q, 4));
  ASSERT_TRUE(got.ok()) << got.status.ToString();
  ExpectKnnMatchesBruteForce(data, q, 4, got.neighbors);

  std::remove(path.c_str());
}

TEST(QueryServiceTest, ReadOnlyDbRejectsMutationAndFlush) {
  const std::string path = TempPath("service_ro.sdb");
  const auto data = MakeData(100);
  {
    SpatialDb<2>::Options options;
    options.page_size = 512;
    auto db = SpatialDb<2>::CreateOnFile(path, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());
  }
  auto db = SpatialDb<2>::OpenFromFileReadOnly(path, 512, 32);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(db->read_only());
  EXPECT_TRUE(db->Flush().IsInvalidArgument());
  EXPECT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr)
                  .IsInvalidArgument());
  // Queries still work.
  auto nn = KnnSearch<2>(db->tree(), {{0.5, 0.5}}, KnnOptions{}, nullptr);
  ASSERT_TRUE(nn.ok());
  ExpectKnnMatchesBruteForce(data, {{0.5, 0.5}}, 1, *nn);
  std::remove(path.c_str());
}

TEST(ReadOnlyDiskViewTest, ForwardsReadsAndCountsPrivately) {
  DiskManager base(128);
  const PageId id = base.AllocatePage();
  std::vector<char> buf(128, 'v');
  ASSERT_TRUE(base.WritePage(id, buf.data()).ok());

  ReadOnlyDiskView view(&base);
  EXPECT_EQ(view.page_size(), 128u);
  EXPECT_EQ(view.live_pages(), 1u);

  std::vector<char> out(128, 0);
  ASSERT_TRUE(view.ReadPage(id, out.data()).ok());
  EXPECT_EQ(out[0], 'v');
  EXPECT_EQ(view.stats().physical_reads, 1u);
  EXPECT_EQ(base.stats().physical_reads, 0u);  // base untouched

  EXPECT_TRUE(view.WritePage(id, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(view.FreePage(id).IsInvalidArgument());
  EXPECT_FALSE(view.ReadPage(999, out.data()).ok());
}

}  // namespace
}  // namespace spatial
