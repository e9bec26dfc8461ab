// Scrapes /metrics concurrently with a mixed read/write serving workload
// and checks the exposition is *consistent*, not just present:
//
//   * a scraper thread pulls the full text exposition in a loop while
//     readers run kNN queries and a writer lands inserts/deletes and
//     checkpoints — every scrape must parse, contain the required series,
//     and contain no NaN sample;
//   * chosen counters must be monotone across scrapes;
//   * after quiescing, the scraped page-access counters must equal the
//     summed per-query QueryStats (the read workload is kNN-only, the one
//     kind whose traversal fills QueryStats completely), and the WAL fsync
//     histogram must be non-empty (writes really group-committed).
//
// Runs under tools/tsan_check.sh: the scrape path crosses every worker's
// live counters while they are being written. `--smoke` shortens the run
// for tier-1 ctest.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/query_service.h"
#include "wal/wal_writer.h"

namespace spatial {
namespace {

bool g_smoke = false;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void CleanupDb(const std::string& path) {
  std::remove(path.c_str());
  for (uint64_t s = 1; s <= 256; ++s) {
    std::remove(WalWriter::SegmentPath(path, s).c_str());
  }
}

// Value of series `name{labels}` (labels == raw label body, "" for none);
// -1 when absent.
double SeriesValue(const std::string& text, const std::string& name,
                   const std::string& labels = "") {
  std::string needle = name;
  if (!labels.empty()) {
    needle += '{';
    needle += labels;
    needle += '}';
  }
  needle += ' ';
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    // Must be at line start and, for the label-less form, not actually a
    // labelled series (name + ' ' can't false-match, but name at line
    // start could be a prefix of a longer name — require exact match).
    if (pos != 0 && text[pos - 1] != '\n') {
      pos += 1;
      continue;
    }
    const char* value = text.c_str() + pos + needle.size();
    return std::strtod(value, nullptr);
  }
  return -1.0;
}

TEST(MetricsScrapeTest, ConcurrentScrapeIsConsistent) {
  const std::string path = TempPath("metrics_scrape.sdb");
  CleanupDb(path);

  const int kWrites = g_smoke ? 200 : 2000;
  const int kQueriesPerThread = g_smoke ? 300 : 3000;
  const int kQueryThreads = 3;
  const int kCheckpointEvery = 64;

  QueryService<2>::Options options;
  options.num_workers = kQueryThreads;
  options.frames_per_worker = 32;
  options.trace_sample_per_million = 20'000;  // 2%: slow-log sees traffic
  options.slow_query_threshold_ns = 1;        // everything is "slow"
  ServingOptions serving;
  auto service = QueryService<2>::OpenServing(path, serving, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> scrape_failures{0};

  std::thread scraper([&] {
    double last_queries = -1.0;
    double last_nodes = -1.0;
    while (!done.load(std::memory_order_acquire)) {
      const std::string text = (*service)->ScrapeMetrics();
      ++scrapes;
      bool ok = true;
      // Required series, read path. (-1 == absent.)
      for (const char* series : {"spatial_workers", "spatial_uptime_seconds",
                                 "spatial_buffer_logical_fetches_total",
                                 "spatial_buffer_hit_rate",
                                 "spatial_io_physical_reads_total",
                                 "spatial_query_latency_ns_count",
                                 "spatial_queue_wait_ns_count",
                                 "spatial_service_inline_runs_total",
                                 "spatial_slow_queries_recorded_total"}) {
        if (SeriesValue(text, series) < 0.0) ok = false;
      }
      // Required series, serving mode.
      for (const char* series :
           {"spatial_snapshot_epoch", "spatial_last_lsn",
            "spatial_retired_pages", "spatial_wal_fsync_ns_count",
            "spatial_checkpoints_total"}) {
        if (SeriesValue(text, series) < 0.0) ok = false;
      }
      if (SeriesValue(text, "spatial_queries_total", "outcome=\"ok\"") < 0.0) {
        ok = false;
      }
      if (SeriesValue(text, "spatial_queries_by_kind_total",
                      "kind=\"knn\"") < 0.0) {
        ok = false;
      }
      if (text.find("NaN") != std::string::npos) ok = false;
      // Monotone counters across scrapes.
      const double queries =
          SeriesValue(text, "spatial_queries_total", "outcome=\"ok\"");
      const double nodes = SeriesValue(
          text, "spatial_query_nodes_visited_total", "kind=\"knn\"");
      if (queries < last_queries || nodes < last_nodes) ok = false;
      last_queries = queries;
      last_nodes = nodes;
      if (!ok) ++scrape_failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::thread writer([&] {
    Rng rng(99);
    std::vector<std::future<QueryResponse<2>>> pending;
    uint64_t next_id = 1;
    for (int i = 0; i < kWrites; ++i) {
      Rect<2> r;
      r.lo[0] = rng.Uniform(0.0, 1.0);
      r.lo[1] = rng.Uniform(0.0, 1.0);
      r.hi[0] = r.lo[0] + 0.004;
      r.hi[1] = r.lo[1] + 0.004;
      pending.push_back(
          (*service)->Submit(QueryRequest<2>::Insert(r, next_id++)));
      if (i % kCheckpointEvery == kCheckpointEvery - 1) {
        pending.push_back((*service)->Submit(QueryRequest<2>::Checkpoint()));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (auto& f : pending) {
      const QueryResponse<2> resp = f.get();
      EXPECT_TRUE(resp.ok()) << resp.status.ToString();
    }
  });

  // kNN-only readers: the one read kind whose traversal fills QueryStats,
  // so the final counter cross-check below is exact. Every other request
  // is a Submit, so inline Execute runs and queued runs mix.
  std::vector<std::thread> readers;
  std::atomic<uint64_t> queries_ok{0};
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(7 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const Point<2> q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        QueryRequest<2> request = QueryRequest<2>::Knn(q, 4);
        const QueryResponse<2> resp =
            i % 2 == 0 ? (*service)->Execute(std::move(request))
                       : (*service)->Submit(std::move(request)).get();
        if (resp.ok()) ++queries_ok;
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_EQ(scrape_failures.load(), 0u)
      << scrape_failures.load() << " of " << scrapes.load()
      << " concurrent scrapes were missing series, non-monotone, or NaN";
  EXPECT_EQ(queries_ok.load(),
            static_cast<uint64_t>(kQueryThreads) * kQueriesPerThread);

  // Quiesced cross-checks: exposition vs the stats API it is built from.
  const std::string text = (*service)->ScrapeMetrics();
  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(SeriesValue(text, "spatial_query_nodes_visited_total",
                        "kind=\"knn\""),
            static_cast<double>(stats.query.nodes_visited));
  EXPECT_EQ(SeriesValue(text, "spatial_buffer_logical_fetches_total"),
            static_cast<double>(stats.buffer.logical_fetches));
  EXPECT_EQ(SeriesValue(text, "spatial_queries_total", "outcome=\"ok\""),
            static_cast<double>(stats.queries_ok));
  EXPECT_EQ(SeriesValue(text, "spatial_query_latency_ns_count"),
            static_cast<double>(stats.latency.total_count));
  // All reads were kNN, and only read kinds flow through the worker pool
  // (writes ride the writer thread): per-kind count == queries_ok.
  EXPECT_EQ(SeriesValue(text, "spatial_queries_by_kind_total",
                        "kind=\"knn\""),
            static_cast<double>(stats.queries_ok));
  // Each read ran inline or waited in the queue, never both: the inline
  // counter and the queue-wait histogram partition every outcome.
  EXPECT_EQ(SeriesValue(text, "spatial_service_inline_runs_total") +
                SeriesValue(text, "spatial_queue_wait_ns_count"),
            SeriesValue(text, "spatial_queries_total", "outcome=\"ok\"") +
                SeriesValue(text, "spatial_queries_total",
                            "outcome=\"failed\""));
  EXPECT_GT(SeriesValue(text, "spatial_queue_wait_ns_count"), 0.0);
  // Writes really flowed through the WAL group-commit path.
  EXPECT_GT(SeriesValue(text, "spatial_wal_fsync_ns_count"), 0.0);
  EXPECT_GT(SeriesValue(text, "spatial_checkpoints_total"), 0.0);
  // The slow-query log saw traffic (threshold 1 ns catches everything).
  EXPECT_GT(SeriesValue(text, "spatial_slow_queries_recorded_total"), 0.0);
  const std::string json = (*service)->slow_query_log().DumpJson();
  EXPECT_NE(json.find("\"kind\":\"knn\""), std::string::npos);

  (*service)->Shutdown();
  CleanupDb(path);
}

}  // namespace
}  // namespace spatial

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") spatial::g_smoke = true;
  }
  return RUN_ALL_TESTS();
}
