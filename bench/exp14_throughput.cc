// E14 — Concurrent query throughput scaling (query service layer).
//
// The SIGMOD'95 evaluation measures page accesses per query for one
// client; this experiment asks the production question on top of it: how
// does aggregate throughput scale when a fixed pool of workers serves the
// same immutable file-backed index concurrently?
//
// Three sweeps over one 100k-point file-backed database:
//   (a) I/O-bound scaling: every physical read carries a simulated
//       rotational-disk latency (the paper's cost regime, where page
//       accesses dominate). Sleeping reads overlap across workers, so
//       throughput should scale near-linearly in the worker count,
//       independent of host core count.
//   (b) CPU-bound scaling: zero simulated latency — the index lives in
//       the OS page cache, so scaling is bounded by available cores
//       (reported alongside).
//   (c) Buffer thrash: fixed workers, shrinking per-worker pools. Once a
//       pool no longer covers the hot upper levels, physical reads per
//       query — and with (a)'s latency, total cost — climb sharply.
//
// Every row reports the aggregated per-worker stats: the paper's logical
// page accesses per query, physical reads per query, hit rate, and the
// latency distribution (p50/p95/p99) from the per-worker histograms.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "db/spatial_db.h"
#include "exp_common.h"
#include "service/query_service.h"

namespace spatial {
namespace bench {
namespace {

constexpr size_t kN = 100000;
constexpr uint32_t kK = 10;
constexpr uint32_t kClientThreads = 2;
constexpr uint32_t kSimulatedLatencyUs = 200;

std::string DbPath() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/spatial_e14.sdb";
}

struct RunResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double pages_per_query = 0.0;
  double phys_reads_per_query = 0.0;
  double hit_rate = 0.0;
};

// Fires `num_queries` kNN queries at the service from kClientThreads
// submitters and returns the aggregated service-side statistics.
RunResult RunLoad(QueryService<2>& service,
                  const std::vector<Point2>& queries, size_t num_queries) {
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
        const QueryResponse<2> response = f.get();
        UnwrapStatus(response.status, "service query");
      }
    });
  }
  for (auto& c : clients) c.join();

  const ServiceStats stats = service.Snapshot();
  RunResult r;
  r.qps = stats.QueriesPerSecond();
  r.p50_ms = static_cast<double>(stats.latency.Percentile(0.50)) / 1e6;
  r.p95_ms = static_cast<double>(stats.latency.Percentile(0.95)) / 1e6;
  r.p99_ms = static_cast<double>(stats.latency.Percentile(0.99)) / 1e6;
  r.pages_per_query = stats.PageAccessesPerQuery();
  r.phys_reads_per_query = stats.PhysicalReadsPerQuery();
  r.hit_rate = stats.buffer.HitRate();
  return r;
}

void AddRow(Table* table, const std::string& label, const RunResult& r,
            double baseline_qps) {
  table->AddRow({label, FmtDouble(r.qps, 0),
                 FmtDouble(baseline_qps > 0 ? r.qps / baseline_qps : 1.0, 2),
                 FmtDouble(r.p50_ms, 3), FmtDouble(r.p95_ms, 3),
                 FmtDouble(r.p99_ms, 3), FmtDouble(r.pages_per_query, 2),
                 FmtDouble(r.phys_reads_per_query, 2),
                 FmtDouble(r.hit_rate, 3)});
}

void Main() {
  PrintHeader("E14", "concurrent query throughput scaling (service layer)");
  std::printf("host reports %u hardware threads; %u client submitters\n\n",
              std::thread::hardware_concurrency(), kClientThreads);

  const std::string path = DbPath();
  {
    SpatialDb<2>::Options options;
    options.page_size = kPageSize;
    auto db = Unwrap(SpatialDb<2>::CreateOnFile(path, options), "create db");
    UnwrapStatus(db.BulkLoadData(MakeDataset(Family::kUniform, kN, kDataSeed),
                                 BulkLoadMethod::kStr),
                 "bulk load");
    UnwrapStatus(db.Flush(), "flush");
    std::printf("built %s: %llu points, %llu pages, height %d\n\n",
                path.c_str(),
                static_cast<unsigned long long>(db.tree().size()),
                static_cast<unsigned long long>(db.disk().live_pages()),
                db.tree().height());
  }
  Rng qrng(kQuerySeed);
  std::vector<Point2> queries =
      GenerateUniform<2>(512, UnitBounds<2>(), &qrng);

  const std::vector<std::string> columns = {
      "config",    "qps",        "speedup", "p50_ms",  "p95_ms",
      "p99_ms",    "pages/q",    "phys/q",  "hitrate"};

  {
    std::printf("--- (a) I/O-bound scaling: %u us simulated read latency, "
                "16 frames/worker ---\n",
                kSimulatedLatencyUs);
    Table table(columns);
    double baseline = 0.0;
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      QueryService<2>::Options options;
      options.num_workers = workers;
      options.frames_per_worker = 16;
      options.simulated_read_latency_us = kSimulatedLatencyUs;
      auto service =
          Unwrap(QueryService<2>::Open(path, kPageSize, options), "open");
      const RunResult r = RunLoad(*service, queries, 300 * workers);
      if (workers == 1) baseline = r.qps;
      AddRow(&table, std::to_string(workers) + " workers", r, baseline);
    }
    PrintTableAndCsv(table);
  }

  {
    std::printf("--- (b) CPU-bound scaling: page-cache reads, "
                "1024 frames/worker ---\n");
    Table table(columns);
    double baseline = 0.0;
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      QueryService<2>::Options options;
      options.num_workers = workers;
      options.frames_per_worker = 1024;
      auto service =
          Unwrap(QueryService<2>::Open(path, kPageSize, options), "open");
      const RunResult r = RunLoad(*service, queries, 4000 * workers);
      if (workers == 1) baseline = r.qps;
      AddRow(&table, std::to_string(workers) + " workers", r, baseline);
    }
    PrintTableAndCsv(table);
  }

  {
    std::printf("--- (c) buffer thrash: 4 workers, %u us latency, "
                "frames/worker swept ---\n",
                kSimulatedLatencyUs);
    Table table(columns);
    double baseline = 0.0;
    for (uint32_t frames : {4u, 16u, 64u, 256u, 2048u}) {
      QueryService<2>::Options options;
      options.num_workers = 4;
      options.frames_per_worker = frames;
      options.simulated_read_latency_us = kSimulatedLatencyUs;
      auto service =
          Unwrap(QueryService<2>::Open(path, kPageSize, options), "open");
      const RunResult r = RunLoad(*service, queries, 1200);
      if (frames == 4) baseline = r.qps;
      AddRow(&table, std::to_string(frames) + " frames", r, baseline);
    }
    PrintTableAndCsv(table);
  }

  std::remove(path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace spatial

int main() {
  spatial::bench::Main();
  return 0;
}
