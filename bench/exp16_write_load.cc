// E16 — Reader throughput under durable write load (serving mode).
//
// The durability subsystem's headline claim is that queries keep running
// against consistent snapshots while a single writer commits WAL-logged
// batches. This experiment quantifies the cost: a file-backed serving
// database is preloaded, then kNN query throughput is measured while a
// paced writer submits durable inserts/deletes at a target rate. Sweeping
// the write rate (0 = idle baseline) shows how reader qps and tail
// latency degrade as group commits, copy-on-write page churn, and
// rotation-triggered checkpoints compete for the same file.
//
// Per row: reader qps (and ratio vs the idle baseline), p50/p95/p99 query
// latency, the paper's pages/query, the achieved durable write rate, and
// how many checkpoints ran inside the measurement window.
//
// Writes BENCH_E16.json (flat metric -> value) for tools/bench_compare.py.
// `--smoke` runs a scaled-down configuration for ctest.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "db/serving_db.h"
#include "exp_common.h"
#include "service/query_service.h"
#include "wal/wal_writer.h"

namespace spatial {
namespace bench {
namespace {

constexpr uint32_t kK = 10;
constexpr uint32_t kQueryWorkers = 4;
constexpr uint32_t kClientThreads = 2;

std::string DbPath() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/spatial_e16.sdb";
}

void CleanupDb(const std::string& path) {
  std::remove(path.c_str());
  for (uint64_t s = 1; s <= 1024; ++s) {
    std::remove(WalWriter::SegmentPath(path, s).c_str());
  }
}

Rect<2> PointRect(double x, double y) {
  Rect<2> r;
  r.lo[0] = r.hi[0] = x;
  r.lo[1] = r.hi[1] = y;
  return r;
}

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double pages_per_query = 0.0;
  double achieved_writes_per_s = 0.0;
  uint64_t checkpoints = 0;
};

// Measures reader throughput while a paced writer pushes durable ops at
// `write_rate` per second (0 = no writer). `next_id` advances across runs
// so inserted ids never collide.
RunResult RunLoad(QueryService<2>& service, const std::vector<Point2>& queries,
                  size_t num_queries, uint64_t write_rate,
                  uint64_t* next_id) {
  std::atomic<bool> stop{false};
  std::thread writer;
  if (write_rate > 0) {
    writer = std::thread([&] {
      Rng rng(4242 + write_rate);
      std::vector<std::future<QueryResponse<2>>> pending;
      std::vector<std::pair<Rect<2>, uint64_t>> live;
      const auto interval =
          std::chrono::nanoseconds(1000000000ull / write_rate);
      auto next = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_acquire)) {
        if (!live.empty() && rng.NextBounded(5) == 0) {
          const size_t victim = rng.NextBounded(live.size());
          pending.push_back(service.Submit(QueryRequest<2>::Delete(
              live[victim].first, live[victim].second)));
          live.erase(live.begin() + victim);
        } else {
          const Rect<2> r =
              PointRect(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
          pending.push_back(
              service.Submit(QueryRequest<2>::Insert(r, *next_id)));
          live.emplace_back(r, *next_id);
          ++*next_id;
        }
        if (pending.size() >= 256) {
          for (auto& f : pending) {
            UnwrapStatus(f.get().status, "durable write");
          }
          pending.clear();
        }
        next += interval;
        std::this_thread::sleep_until(next);
      }
      for (auto& f : pending) {
        UnwrapStatus(f.get().status, "durable write");
      }
    });
  }

  // Counts every checkpoint in the window, including the rotation-triggered
  // ones the write path runs when a WAL segment fills.
  const uint64_t ckpts_before = service.serving_db()->checkpoints();

  // Warm the worker pools (and let the writer reach its pace) outside the
  // measurement window.
  for (size_t i = 0; i < 64; ++i) {
    UnwrapStatus(
        service.Execute(QueryRequest<2>::Knn(queries[i % queries.size()], kK))
            .status,
        "warmup query");
  }
  service.ResetStats();

  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<QueryResponse<2>>> futures;
      for (size_t i = t; i < num_queries; i += kClientThreads) {
        futures.push_back(service.Submit(
            QueryRequest<2>::Knn(queries[i % queries.size()], kK)));
      }
      for (auto& f : futures) {
        UnwrapStatus(f.get().status, "service query");
      }
    });
  }
  for (auto& c : clients) c.join();

  const ServiceStats stats = service.Snapshot();
  stop.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();

  RunResult r;
  r.qps = stats.QueriesPerSecond();
  r.p50_ms = static_cast<double>(stats.latency.Percentile(0.50)) / 1e6;
  r.p95_ms = static_cast<double>(stats.latency.Percentile(0.95)) / 1e6;
  r.p99_ms = static_cast<double>(stats.latency.Percentile(0.99)) / 1e6;
  r.pages_per_query = stats.PageAccessesPerQuery();
  r.achieved_writes_per_s =
      stats.elapsed_seconds > 0
          ? static_cast<double>(stats.writes_ok) / stats.elapsed_seconds
          : 0.0;
  r.checkpoints = service.serving_db()->checkpoints() - ckpts_before;
  return r;
}

void Main(bool smoke) {
  PrintHeader("E16", "reader throughput under durable write load");
  const size_t preload_n = smoke ? 5000 : 60000;
  const size_t num_queries = smoke ? 1500 : 20000;
  const std::vector<uint64_t> rates =
      smoke ? std::vector<uint64_t>{0, 2000}
            : std::vector<uint64_t>{0, 500, 2000, 8000};
  std::printf("%zu preloaded points, %zu queries/run, %u query workers, "
              "%u client submitters\n\n",
              preload_n, num_queries, kQueryWorkers, kClientThreads);

  const std::string path = DbPath();
  CleanupDb(path);
  uint64_t next_id = 1;
  {
    ServingOptions serving;
    serving.page_size = kPageSize;
    auto sdb = Unwrap(ServingDb<2>::Open(path, serving), "create serving db");
    Rng rng(kDataSeed);
    std::vector<ServingDb<2>::WriteOp> batch;
    for (size_t i = 0; i < preload_n; ++i) {
      batch.push_back(ServingDb<2>::WriteOp::Insert(
          PointRect(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)), next_id++));
      if (batch.size() == 2000 || i + 1 == preload_n) {
        UnwrapStatus(sdb->ApplyBatch(batch, nullptr), "preload batch");
        batch.clear();
      }
    }
    UnwrapStatus(sdb->Close(), "close after preload");
  }

  Rng qrng(kQuerySeed);
  const std::vector<Point2> queries =
      GenerateUniform<2>(512, UnitBounds<2>(), &qrng);

  Table table({"write_rate", "qps", "vs_idle", "p50_ms", "p95_ms", "p99_ms",
               "pages/q", "writes/s", "ckpts"});
  std::vector<std::pair<std::string, double>> json;
  double idle_qps = 0.0;
  for (const uint64_t rate : rates) {
    QueryService<2>::Options options;
    options.num_workers = kQueryWorkers;
    options.frames_per_worker = 256;
    ServingOptions serving;
    serving.page_size = kPageSize;
    auto service = Unwrap(
        QueryService<2>::OpenServing(path, serving, options), "open serving");
    const RunResult r =
        RunLoad(*service, queries, num_queries, rate, &next_id);
    if (rate == 0) idle_qps = r.qps;
    table.AddRow({std::to_string(rate) + "/s", FmtDouble(r.qps, 0),
                  FmtDouble(idle_qps > 0 ? r.qps / idle_qps : 1.0, 3),
                  FmtDouble(r.p50_ms, 3), FmtDouble(r.p95_ms, 3),
                  FmtDouble(r.p99_ms, 3), FmtDouble(r.pages_per_query, 2),
                  FmtDouble(r.achieved_writes_per_s, 0),
                  std::to_string(r.checkpoints)});
    const std::string suffix = "_rate" + std::to_string(rate);
    json.emplace_back("qps" + suffix, r.qps);
    json.emplace_back("p95_ms" + suffix, r.p95_ms);
    json.emplace_back("p99_ms" + suffix, r.p99_ms);
    json.emplace_back("pages_per_query" + suffix, r.pages_per_query);
    json.emplace_back("write_rate_achieved" + suffix,
                      r.achieved_writes_per_s);
    service->Shutdown();
  }
  PrintTableAndCsv(table);

  const char* json_path =
      smoke ? "/tmp/BENCH_E16_smoke.json" : "BENCH_E16.json";
  WriteBenchJson(json_path, json, /*update_manifest=*/!smoke);
  std::printf("wrote %s\n", json_path);
  CleanupDb(path);
}

}  // namespace
}  // namespace bench
}  // namespace spatial

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  spatial::bench::Main(smoke);
  return 0;
}
