// Concurrency stress: N worker threads × M random kNN queries through the
// service must be byte-identical to the single-threaded KnnSearch answers
// on the same tree. Runs over both backends (in-memory shared disk and a
// real file read via pread), with client-side submission concurrency, and
// with inline Execute callers racing queued Submits for the contexts.
// tools/tsan_check.sh runs this binary under ThreadSanitizer.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "db/spatial_db.h"
#include "service/query_service.h"

namespace spatial {
namespace {

constexpr uint32_t kWorkers = 8;
constexpr uint32_t kClientThreads = 4;
constexpr size_t kQueriesPerClient = 150;
constexpr uint32_t kK = 10;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

struct QueryCase {
  Point2 query;
  std::vector<Neighbor> expected;
};

std::vector<Entry<2>> MakeData(size_t n) {
  Rng rng(20250806);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

// Golden answers from the plain single-threaded path on the same tree.
std::vector<QueryCase> MakeGolden(const SpatialDb<2>& db, size_t count) {
  Rng rng(1234);
  std::vector<QueryCase> cases(count);
  for (auto& c : cases) {
    c.query = Point2{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    KnnOptions knn;
    knn.k = kK;
    auto expected = KnnSearch<2>(db.tree(), c.query, knn, nullptr);
    EXPECT_TRUE(expected.ok());
    c.expected = std::move(expected).value();
  }
  return cases;
}

// Every neighbor must match bit-for-bit: same id, same squared distance.
void ExpectByteIdentical(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  if (!got.empty()) {
    ASSERT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(Neighbor)),
              0);
  }
}

// Hammers `service` from kClientThreads submitters, each drawing query
// indices round-robin from the shared golden set, and checks every answer.
void RunStress(QueryService<2>& service,
               const std::vector<QueryCase>& golden) {
  std::vector<std::thread> clients;
  std::vector<int> failures(kClientThreads, 0);
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<QueryResponse<2>>> futures;
      std::vector<size_t> indices;
      futures.reserve(kQueriesPerClient);
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        const size_t idx = (t + i * kClientThreads) % golden.size();
        indices.push_back(idx);
        futures.push_back(
            service.Submit(QueryRequest<2>::Knn(golden[idx].query, kK)));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        QueryResponse<2> response = futures[i].get();
        const QueryCase& c = golden[indices[i]];
        if (!response.ok() ||
            response.neighbors.size() != c.expected.size() ||
            (!c.expected.empty() &&
             std::memcmp(response.neighbors.data(), c.expected.data(),
                         c.expected.size() * sizeof(Neighbor)) != 0)) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "client " << t << " saw wrong answers";
  }
}

// Half the client threads call Execute, which runs on the calling thread
// whenever a context is idle and nothing queued waits, and half Submit, so
// inline callers race the worker threads for the same contexts, pools and
// scratch arenas. Every Execute answer is checked byte for byte.
void RunMixedStress(QueryService<2>& service,
                    const std::vector<QueryCase>& golden) {
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        const QueryCase& c = golden[(t + i * kClientThreads) % golden.size()];
        QueryRequest<2> request = QueryRequest<2>::Knn(c.query, kK);
        const QueryResponse<2> response =
            t % 2 == 0 ? service.Execute(std::move(request))
                       : service.Submit(std::move(request)).get();
        ASSERT_TRUE(response.ok()) << response.status.ToString();
        ExpectByteIdentical(response.neighbors, c.expected);
      }
    });
  }
  for (auto& c : clients) c.join();
}

// Call only once all traffic has drained (counters are exact when idle).
void CheckStats(QueryService<2>& service, uint64_t expected_min_queries) {
  const ServiceStats stats = service.Snapshot();
  EXPECT_GE(stats.queries_ok, expected_min_queries);
  EXPECT_EQ(stats.queries_failed, 0u);
  // Every query either ran resident (no buffer-pool traffic at all) or
  // fetched at least the root page on the paged path.
  EXPECT_GE(stats.resident_hits + stats.buffer.logical_fetches,
            stats.queries_ok);
  EXPECT_EQ(stats.latency.total_count, stats.TotalQueries());
  // Every read either ran inline or waited in the queue.
  EXPECT_EQ(stats.inline_runs + stats.queue_wait.total_count,
            stats.TotalQueries());
}

TEST(ServiceStressTest, InMemoryBackendManyThreads) {
  const auto data = MakeData(4000);
  SpatialDb<2>::Options db_options;
  db_options.page_size = 512;
  db_options.buffer_pages = 64;
  auto db = SpatialDb<2>::CreateInMemory(db_options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());

  const auto golden = MakeGolden(*db, 100);

  QueryService<2>::Options options;
  options.num_workers = kWorkers;
  options.frames_per_worker = 8;  // tiny pools force constant eviction
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  RunStress(**service, golden);
  CheckStats(**service,
             static_cast<uint64_t>(kClientThreads) * kQueriesPerClient);
}

TEST(ServiceStressTest, FileBackendManyThreadsViaPread) {
  const std::string path = TempPath("service_stress.sdb");
  const auto data = MakeData(4000);
  {
    SpatialDb<2>::Options db_options;
    db_options.page_size = 512;
    auto db = SpatialDb<2>::CreateOnFile(path, db_options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());
    ASSERT_TRUE(db->Flush().ok());
  }

  QueryService<2>::Options options;
  options.num_workers = kWorkers;
  options.frames_per_worker = 8;
  auto service = QueryService<2>::Open(path, 512, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const auto golden = MakeGolden((*service)->db(), 100);
  RunStress(**service, golden);
  CheckStats(**service,
             static_cast<uint64_t>(kClientThreads) * kQueriesPerClient);
  std::remove(path.c_str());
}

TEST(ServiceStressTest, InlineExecuteRacesQueuedSubmits) {
  const auto data = MakeData(4000);
  SpatialDb<2>::Options db_options;
  db_options.page_size = 512;
  db_options.buffer_pages = 64;
  auto db = SpatialDb<2>::CreateInMemory(db_options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());

  const auto golden = MakeGolden(*db, 100);

  QueryService<2>::Options options;
  options.num_workers = 4;
  options.frames_per_worker = 8;
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  RunMixedStress(**service, golden);
  const uint64_t queries =
      static_cast<uint64_t>(kClientThreads) * kQueriesPerClient;
  CheckStats(**service, queries);
  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.TotalQueries(), queries);
  EXPECT_GT(stats.queue_wait.total_count, 0u);  // the Submit half queued
}

// Mixed read traffic (all four kinds at once) must not interfere: repeat
// kNN answers stay byte-identical while range/top-k queries run alongside.
TEST(ServiceStressTest, MixedQueryKindsUnderLoad) {
  const auto data = MakeData(2000);
  SpatialDb<2>::Options db_options;
  db_options.page_size = 512;
  auto db = SpatialDb<2>::CreateInMemory(db_options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());

  const auto golden = MakeGolden(*db, 60);

  QueryService<2>::Options options;
  options.num_workers = 4;
  options.frames_per_worker = 8;
  auto service = QueryService<2>::Attach(*db, options);
  ASSERT_TRUE(service.ok());

  std::thread noise([&] {
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      const double lo_x = rng.Uniform(0.0, 0.8);
      const double lo_y = rng.Uniform(0.0, 0.8);
      const Rect2 window =
          Rect2::FromCorners({{lo_x, lo_y}}, {{lo_x + 0.2, lo_y + 0.2}});
      if (i % 2 == 0) {
        (*service)->Execute(QueryRequest<2>::Range(window));
      } else {
        (*service)->Execute(QueryRequest<2>::TopK(
            {{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}}, 5));
      }
    }
  });
  RunStress(**service, golden);
  noise.join();
  CheckStats(**service,
             static_cast<uint64_t>(kClientThreads) * kQueriesPerClient + 200);
}

}  // namespace
}  // namespace spatial
