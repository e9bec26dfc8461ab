// spatial_cli — command-line front end for the library: generate datasets,
// build persistent indexes, inspect them, and run queries.
//
//   spatial_cli generate <uniform|clustered|tiger> <n> <out.csv> [seed]
//   spatial_cli build <points.csv> <out.sdb> [method] [page_size]
//                      method: insert|str|hilbert|morton   (default str)
//   spatial_cli stats <db.sdb> [page_size]
//   spatial_cli tree-quality <db.sdb> [page_size]
//   spatial_cli knn <db.sdb> <x> <y> <k> [page_size]
//   spatial_cli approx-knn <db.sdb> <x> <y> <k> <epsilon> [max_visits]
//                          [page_size]
//   spatial_cli farthest <db.sdb> <x> <y> <k> [page_size]
//   spatial_cli rnn <db.sdb> <x> <y> [page_size]
//   spatial_cli rknn <db.sdb> <x> <y> <k> [page_size]
//   spatial_cli skyline <db.sdb> <x1> <y1> [<x2> <y2> ...] [page_size]
//   spatial_cli range <db.sdb> <lox> <loy> <hix> <hiy> [page_size]
//   spatial_cli serve-bench <db.sdb> <workers> <queries> [k] [page_size]
//                           [frames_per_worker] [latency_us]
//                           [--metrics-dump] [--trace-sample=<per_million>]
//                           [--backend=paged|resident]
//   spatial_cli metrics <db.sdb> [queries] [k] [page_size] [--slow-log]
//   spatial_cli metrics --connect <host:port> [--slow-log]
//   spatial_cli shard-serve <points.csv> <shards> [port] [workers]
//                           [--max-requests=N] [--max-pending=N]
//                           [--trace-sample=<per_million>]
//                           [--backend=paged|resident]
//   spatial_cli shard-bench <host> <port> <queries> [k] [threads]
//
// tree-quality prints the validator's per-level quality diagnostics (node
// fill, summed sibling overlap, entry area and margin) in a stable format
// checked golden by tools/cli_test.sh.
//
// --backend selects the serving tier (docs/PERF.md "Resident tier"):
// `resident` (the default) compiles the tree into a pinned SoA arena and
// serves kNN/top-k/batch from it; `paged` forces every query through the
// per-worker buffer pools.
//
// shard-serve partitions the CSV across <shards> in-memory shards and
// serves them over the binary RPC protocol (docs/SHARDING.md); it prints
// "listening on 127.0.0.1:<port>" once ready. shard-bench connects one
// RpcClient per thread and fires random kNN queries, reporting throughput,
// latency percentiles, and how many requests the server shed.
//
// serve-bench --metrics-dump prints the full Prometheus text exposition
// (and the slow-query log as JSON) after the run; `metrics` drives a short
// query burst with 100% trace sampling and prints the exposition — or,
// with --slow-log, the captured per-query traces (docs/OBSERVABILITY.md).
// With --connect host:port, `metrics` instead scrapes a live shard-serve
// deployment over the wire's admin frames: the full exposition document,
// or with --slow-log the router's assembled distributed traces as JSON.
//
// Exit status 0 on success; errors print a Status string to stderr.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/farthest.h"
#include "core/knn.h"
#include "core/reverse_knn.h"
#include "core/scratch.h"
#include "core/skyline.h"
#include "data/clustered.h"
#include "data/dataset.h"
#include "data/tiger_like.h"
#include "data/uniform.h"
#include "db/spatial_db.h"
#include "net/client.h"
#include "net/server.h"
#include "rtree/validator.h"
#include "service/query_service.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"

namespace spatial {
namespace {

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  spatial_cli generate <uniform|clustered|tiger> <n> <out.csv> "
      "[seed]\n"
      "  spatial_cli build <points.csv> <out.sdb> [insert|str|hilbert|"
      "morton] [page_size]\n"
      "  spatial_cli stats <db.sdb> [page_size]\n"
      "  spatial_cli tree-quality <db.sdb> [page_size]\n"
      "  spatial_cli knn <db.sdb> <x> <y> <k> [page_size]\n"
      "  spatial_cli approx-knn <db.sdb> <x> <y> <k> <epsilon> "
      "[max_visits] [page_size]\n"
      "  spatial_cli farthest <db.sdb> <x> <y> <k> [page_size]\n"
      "  spatial_cli rnn <db.sdb> <x> <y> [page_size]\n"
      "  spatial_cli rknn <db.sdb> <x> <y> <k> [page_size]\n"
      "  spatial_cli skyline <db.sdb> <x1> <y1> [<x2> <y2> ...] "
      "[page_size]\n"
      "  spatial_cli range <db.sdb> <lox> <loy> <hix> <hiy> [page_size]\n"
      "  spatial_cli serve-bench <db.sdb> <workers> <queries> [k] "
      "[page_size] [frames_per_worker] [latency_us] [--metrics-dump] "
      "[--trace-sample=<per_million>] [--backend=paged|resident]\n"
      "  spatial_cli metrics <db.sdb> [queries] [k] [page_size] "
      "[--slow-log]\n"
      "  spatial_cli metrics --connect <host:port> [--slow-log]\n"
      "  spatial_cli shard-serve <points.csv> <shards> [port] [workers] "
      "[--max-requests=N] [--max-pending=N] "
      "[--trace-sample=<per_million>] [--backend=paged|resident]\n"
      "  spatial_cli shard-bench <host> <port> <queries> [k] [threads]\n");
  return 2;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string family = argv[0];
  const size_t n = static_cast<size_t>(std::atoll(argv[1]));
  const std::string out = argv[2];
  const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
  Rng rng(seed);
  std::vector<Point2> points;
  if (family == "uniform") {
    points = GenerateUniform<2>(n, UnitBounds<2>(), &rng);
  } else if (family == "clustered") {
    points = GenerateClustered<2>(n, UnitBounds<2>(), ClusteredOptions{},
                                  &rng);
  } else if (family == "tiger") {
    auto network =
        GenerateTigerLike(n, UnitBounds<2>(), TigerLikeOptions{}, &rng);
    points = SegmentMidpoints(network.segments);
    points.resize(n);
  } else {
    return Usage();
  }
  if (Status s = WritePointsCsv(out, points); !s.ok()) {
    return Fail(s, "write csv");
  }
  std::printf("wrote %zu %s points to %s (seed %llu)\n", points.size(),
              family.c_str(), out.c_str(),
              static_cast<unsigned long long>(seed));
  return 0;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string csv = argv[0];
  const std::string out = argv[1];
  const std::string method = argc > 2 ? argv[2] : "str";
  const uint32_t page_size =
      argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 1024;

  auto points = ReadPointsCsv(csv);
  if (!points.ok()) return Fail(points.status(), "read csv");
  auto data = MakePointEntries(*points);

  SpatialDb<2>::Options options;
  options.page_size = page_size;
  auto db = SpatialDb<2>::CreateOnFile(out, options);
  if (!db.ok()) return Fail(db.status(), "create db");

  if (method == "insert") {
    for (const auto& e : data) {
      if (Status s = db->tree().Insert(e.mbr, e.id); !s.ok()) {
        return Fail(s, "insert");
      }
    }
  } else {
    BulkLoadMethod bulk;
    if (method == "str") {
      bulk = BulkLoadMethod::kStr;
    } else if (method == "hilbert") {
      bulk = BulkLoadMethod::kHilbert;
    } else if (method == "morton") {
      bulk = BulkLoadMethod::kMorton;
    } else {
      return Usage();
    }
    if (Status s = db->BulkLoadData(data, bulk); !s.ok()) {
      return Fail(s, "bulk load");
    }
  }
  if (Status s = db->Flush(); !s.ok()) return Fail(s, "flush");
  std::printf("indexed %llu points into %s (height %d, %llu pages)\n",
              static_cast<unsigned long long>(db->tree().size()),
              out.c_str(), db->tree().height(),
              static_cast<unsigned long long>(db->disk().live_pages()));
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 1) return Usage();
  const uint32_t page_size =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  auto report = ValidateTree<2>(db->tree(), /*check_min_fill=*/false);
  if (!report.ok()) return Fail(report.status(), "validate");
  std::printf("entries:        %llu\n",
              static_cast<unsigned long long>(db->tree().size()));
  std::printf("height:         %d\n", report->height);
  std::printf("nodes:          %llu\n",
              static_cast<unsigned long long>(report->nodes));
  std::printf("avg leaf fill:  %.3f\n", report->avg_leaf_fill);
  std::printf("fan-out (max):  %u\n", db->tree().max_entries());
  std::printf("nodes/level:   ");
  for (uint64_t n : report->nodes_per_level) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("  (leaves first)\n");
  std::printf("structure:      OK\n");
  return 0;
}

// Prints the validator's quality diagnostics in a stable, golden-testable
// layout: one row per level (leaves first) with node count, mean fill,
// summed sibling overlap, and summed entry area/margin.
int CmdTreeQuality(int argc, char** argv) {
  if (argc < 1) return Usage();
  const uint32_t page_size =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  auto report = ValidateTree<2>(db->tree(), /*check_min_fill=*/false);
  if (!report.ok()) return Fail(report.status(), "validate");
  std::printf("tree-quality: %llu entries, height %d, %llu nodes, "
              "fan-out %u\n",
              static_cast<unsigned long long>(db->tree().size()),
              report->height,
              static_cast<unsigned long long>(report->nodes),
              db->tree().max_entries());
  std::printf("%-6s %8s %8s %12s %12s %12s\n", "level", "nodes", "fill",
              "overlap", "area", "margin");
  for (size_t level = 0; level < report->nodes_per_level.size(); ++level) {
    std::printf("%-6zu %8llu %8.3f %12.6f %12.6f %12.6f\n", level,
                static_cast<unsigned long long>(
                    report->nodes_per_level[level]),
                report->avg_fill_per_level[level],
                report->sibling_overlap_per_level[level],
                report->entry_area_per_level[level],
                report->entry_margin_per_level[level]);
  }
  std::printf("total sibling overlap: %.6f\n",
              report->total_sibling_overlap());
  std::printf("structure: OK\n");
  return 0;
}

int CmdKnn(int argc, char** argv) {
  if (argc < 4) return Usage();
  const uint32_t page_size =
      argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  const Point2 q{{std::atof(argv[1]), std::atof(argv[2])}};
  KnnOptions options;
  options.k = static_cast<uint32_t>(std::atoi(argv[3]));
  QueryStats stats;
  auto result = KnnSearch<2>(db->tree(), q, options, &stats);
  if (!result.ok()) return Fail(result.status(), "knn");
  for (const Neighbor& n : *result) {
    std::printf("id=%llu distance=%.9f\n",
                static_cast<unsigned long long>(n.id), std::sqrt(n.dist_sq));
  }
  std::printf("(%llu pages read)\n",
              static_cast<unsigned long long>(stats.nodes_visited));
  return 0;
}

int CmdFarthest(int argc, char** argv) {
  if (argc < 4) return Usage();
  const uint32_t page_size =
      argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  const Point2 q{{std::atof(argv[1]), std::atof(argv[2])}};
  auto result = FarthestSearch<2>(
      db->tree(), q, static_cast<uint32_t>(std::atoi(argv[3])), nullptr);
  if (!result.ok()) return Fail(result.status(), "farthest");
  for (const Neighbor& n : *result) {
    std::printf("id=%llu distance=%.9f\n",
                static_cast<unsigned long long>(n.id), std::sqrt(n.dist_sq));
  }
  return 0;
}

int CmdRnn(int argc, char** argv) {
  if (argc < 3) return Usage();
  const uint32_t page_size =
      argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  const Point2 q{{std::atof(argv[1]), std::atof(argv[2])}};
  // Reverse NN is reverse k-NN at k = 1 (the ReverseKnnOptions default).
  QueryScratch<2> scratch;
  std::vector<Neighbor> found;
  if (Status s = ReverseKnnSearch(db->tree(), q, ReverseKnnOptions{},
                                  &scratch, &found, nullptr);
      !s.ok()) {
    return Fail(s, "rnn");
  }
  for (const Neighbor& n : found) {
    std::printf("id=%llu distance=%.9f\n",
                static_cast<unsigned long long>(n.id), std::sqrt(n.dist_sq));
  }
  std::printf("(%zu reverse nearest neighbors)\n", found.size());
  return 0;
}

int CmdRknn(int argc, char** argv) {
  if (argc < 4) return Usage();
  const uint32_t page_size =
      argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  const Point2 q{{std::atof(argv[1]), std::atof(argv[2])}};
  ReverseKnnOptions options;
  options.k = static_cast<uint32_t>(std::atoi(argv[3]));
  QueryScratch<2> scratch;
  std::vector<Neighbor> found;
  QueryStats stats;
  if (Status s = ReverseKnnSearch(db->tree(), q, options, &scratch, &found,
                                  &stats);
      !s.ok()) {
    return Fail(s, "rknn");
  }
  for (const Neighbor& n : found) {
    std::printf("id=%llu distance=%.9f\n",
                static_cast<unsigned long long>(n.id), std::sqrt(n.dist_sq));
  }
  std::printf("(%zu reverse k-nearest neighbors)\n", found.size());
  return 0;
}

int CmdSkyline(int argc, char** argv) {
  if (argc < 3) return Usage();
  // Everything after the db path is coordinate pairs; an odd trailing
  // argument is the page size.
  uint32_t page_size = 1024;
  int coord_args = argc - 1;
  if (coord_args % 2 == 1) {
    page_size = static_cast<uint32_t>(std::atoi(argv[argc - 1]));
    --coord_args;
  }
  if (coord_args < 2) return Usage();
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  std::vector<Point2> sources;
  for (int i = 0; i < coord_args; i += 2) {
    sources.push_back(
        Point2{{std::atof(argv[1 + i]), std::atof(argv[2 + i])}});
  }
  QueryScratch<2> scratch;
  std::vector<Entry<2>> found;
  QueryStats stats;
  if (Status s = NnSkylineSearch<2>(db->tree(), sources.data(),
                                    sources.size(), &scratch, &found, &stats);
      !s.ok()) {
    return Fail(s, "skyline");
  }
  for (const Entry<2>& e : found) {
    const Point2 c = e.mbr.Center();
    std::printf("id=%llu center=(%.6f, %.6f) distance_sum=%.9f\n",
                static_cast<unsigned long long>(e.id), c[0], c[1],
                SkylineDistSum<2>(sources.data(), sources.size(), e.mbr));
  }
  std::printf("(%zu skyline objects)\n", found.size());
  return 0;
}

int CmdApproxKnn(int argc, char** argv) {
  if (argc < 5) return Usage();
  const uint32_t page_size =
      argc > 6 ? static_cast<uint32_t>(std::atoi(argv[6])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  const Point2 q{{std::atof(argv[1]), std::atof(argv[2])}};
  KnnOptions options;
  options.k = static_cast<uint32_t>(std::atoi(argv[3]));
  options.epsilon = std::atof(argv[4]);
  options.max_visits =
      argc > 5 ? static_cast<uint64_t>(std::atoll(argv[5])) : 0;
  QueryStats stats;
  auto result = KnnSearch<2>(db->tree(), q, options, &stats);
  if (!result.ok()) return Fail(result.status(), "approx-knn");
  for (const Neighbor& n : *result) {
    std::printf("id=%llu distance=%.9f\n",
                static_cast<unsigned long long>(n.id), std::sqrt(n.dist_sq));
  }
  std::printf("(%llu pages read)\n",
              static_cast<unsigned long long>(stats.nodes_visited));
  return 0;
}

int CmdRange(int argc, char** argv) {
  if (argc < 5) return Usage();
  const uint32_t page_size =
      argc > 5 ? static_cast<uint32_t>(std::atoi(argv[5])) : 1024;
  auto db = SpatialDb<2>::OpenFromFile(argv[0], page_size, 1024);
  if (!db.ok()) return Fail(db.status(), "open db");
  const Rect2 window = Rect2::FromCorners(
      {{std::atof(argv[1]), std::atof(argv[2])}},
      {{std::atof(argv[3]), std::atof(argv[4])}});
  std::vector<Entry<2>> found;
  if (Status s = db->tree().Search(window, &found); !s.ok()) {
    return Fail(s, "range");
  }
  for (const Entry<2>& e : found) {
    const Point2 c = e.mbr.Center();
    std::printf("id=%llu center=(%.6f, %.6f)\n",
                static_cast<unsigned long long>(e.id), c[0], c[1]);
  }
  std::printf("(%zu results)\n", found.size());
  return 0;
}

// Opens the database read-only behind a worker pool, fires uniformly
// random kNN queries at it from two submitter threads, and reports
// throughput, latency percentiles, and the aggregated page-access stats.
int CmdServeBench(int argc, char** argv) {
  // Flags may appear anywhere; positionals keep their historical order.
  bool metrics_dump = false;
  bool resident = true;
  uint32_t trace_sample_per_million = 0;
  std::vector<char*> positional;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-dump") == 0) {
      metrics_dump = true;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      trace_sample_per_million =
          static_cast<uint32_t>(std::atoi(argv[i] + 15));
    } else if (std::strcmp(argv[i], "--backend=paged") == 0) {
      resident = false;
    } else if (std::strcmp(argv[i], "--backend=resident") == 0) {
      resident = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(positional.size());
  argv = positional.data();
  if (argc < 3) return Usage();
  const std::string path = argv[0];
  const uint32_t workers =
      static_cast<uint32_t>(std::atoi(argv[1]));
  const size_t num_queries = static_cast<size_t>(std::atoll(argv[2]));
  const uint32_t k =
      argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 10;
  const uint32_t page_size =
      argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 1024;

  QueryService<2>::Options options;
  options.num_workers = workers;
  options.trace_sample_per_million = trace_sample_per_million;
  options.resident_tier = resident;
  if (argc > 5) {
    options.frames_per_worker = static_cast<uint32_t>(std::atoi(argv[5]));
  }
  if (argc > 6) {
    options.simulated_read_latency_us =
        static_cast<uint32_t>(std::atoi(argv[6]));
  }

  auto service = QueryService<2>::Open(path, page_size, options);
  if (!service.ok()) return Fail(service.status(), "open service");

  auto bounds = (*service)->db().tree().Bounds();
  if (!bounds.ok()) return Fail(bounds.status(), "bounds");

  Rng rng(12345);
  std::vector<Point2> queries(512);
  for (auto& q : queries) {
    for (int d = 0; d < 2; ++d) {
      q[d] = rng.Uniform(bounds->lo[d], bounds->hi[d]);
    }
  }

  constexpr uint32_t kSubmitters = 2;
  std::vector<std::thread> clients;
  std::atomic<uint64_t> failed{0};
  for (uint32_t t = 0; t < kSubmitters; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<QueryResponse<2>>> futures;
      for (size_t i = t; i < num_queries; i += kSubmitters) {
        futures.push_back((*service)->Submit(
            QueryRequest<2>::Knn(queries[i % queries.size()], k)));
      }
      for (auto& f : futures) {
        if (!f.get().ok()) failed.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();

  const ServiceStats stats = (*service)->Snapshot();
  std::printf("served %llu queries (%llu failed) on %u workers in %.3f s\n",
              static_cast<unsigned long long>(stats.TotalQueries()),
              static_cast<unsigned long long>(failed.load()), workers,
              stats.elapsed_seconds);
  std::printf("throughput:      %.0f queries/s\n", stats.QueriesPerSecond());
  std::printf("latency p50/p95/p99: %.3f / %.3f / %.3f ms (max %.3f)\n",
              static_cast<double>(stats.latency.Percentile(0.50)) / 1e6,
              static_cast<double>(stats.latency.Percentile(0.95)) / 1e6,
              static_cast<double>(stats.latency.Percentile(0.99)) / 1e6,
              static_cast<double>(stats.latency.max) / 1e6);
  std::printf("page accesses/query: %.2f logical, %.2f physical "
              "(hit rate %.3f)\n",
              stats.PageAccessesPerQuery(), stats.PhysicalReadsPerQuery(),
              stats.buffer.HitRate());
  if (resident) {
    std::printf("backend: resident (arena %llu bytes, %u nodes; "
                "%llu resident / %llu paged)\n",
                static_cast<unsigned long long>(stats.resident_arena_bytes),
                stats.resident_nodes,
                static_cast<unsigned long long>(stats.resident_hits),
                static_cast<unsigned long long>(stats.resident_fallbacks));
  } else {
    std::printf("backend: paged\n");
  }
  if (metrics_dump) {
    std::printf("--- metrics ---\n%s",
                (*service)->ScrapeMetrics().c_str());
    std::printf("--- slow-query log ---\n%s\n",
                (*service)->slow_query_log().DumpJson().c_str());
  }
  return failed.load() == 0 ? 0 : 1;
}

// Drives a short fully-traced query burst and prints the Prometheus text
// exposition (or, with --slow-log, the captured traces as JSON): a quick
// way to see every metric family a served database exports.
int CmdMetrics(int argc, char** argv) {
  bool slow_log = false;
  const char* connect = nullptr;
  std::vector<char*> positional;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--slow-log") == 0) {
      slow_log = true;
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect = argv[i] + 10;
    } else {
      positional.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(positional.size());
  argv = positional.data();

  // Remote mode: scrape a live shard-serve deployment over the wire's
  // admin frames (no local database involved).
  if (connect != nullptr) {
    const std::string hostport = connect;
    const size_t colon = hostport.rfind(':');
    if (colon == std::string::npos || colon + 1 >= hostport.size()) {
      std::fprintf(stderr, "metrics: --connect expects host:port\n");
      return Usage();
    }
    const std::string host = hostport.substr(0, colon);
    const uint16_t port =
        static_cast<uint16_t>(std::atoi(hostport.c_str() + colon + 1));
    auto client = RpcClient<2>::Connect(host, port);
    if (!client.ok()) return Fail(client.status(), "connect");
    auto text = (*client)->Admin(slow_log ? AdminKind::kDumpSlowLog
                                          : AdminKind::kScrapeMetrics);
    if (!text.ok()) return Fail(text.status(), "admin");
    std::printf("%s", text->c_str());
    if (text->empty() || text->back() != '\n') std::printf("\n");
    return 0;
  }

  if (argc < 1) return Usage();
  const std::string path = argv[0];
  const size_t num_queries =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 256;
  const uint32_t k =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 10;
  const uint32_t page_size =
      argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 1024;

  QueryService<2>::Options options;
  options.num_workers = 2;
  options.trace_sample_per_million = 1'000'000;  // trace everything
  auto service = QueryService<2>::Open(path, page_size, options);
  if (!service.ok()) return Fail(service.status(), "open service");

  auto bounds = (*service)->db().tree().Bounds();
  if (!bounds.ok()) return Fail(bounds.status(), "bounds");
  Rng rng(12345);
  std::vector<std::future<QueryResponse<2>>> futures;
  for (size_t i = 0; i < num_queries; ++i) {
    Point2 q;
    for (int d = 0; d < 2; ++d) {
      q[d] = rng.Uniform(bounds->lo[d], bounds->hi[d]);
    }
    futures.push_back((*service)->Submit(QueryRequest<2>::Knn(q, k)));
  }
  uint64_t failed = 0;
  for (auto& f : futures) {
    if (!f.get().ok()) ++failed;
  }
  if (slow_log) {
    std::printf("%s\n", (*service)->slow_query_log().DumpJson().c_str());
  } else {
    std::printf("%s", (*service)->ScrapeMetrics().c_str());
  }
  return failed == 0 ? 0 : 1;
}

// Partitions a CSV of points across in-memory shards and serves them over
// the binary RPC protocol until max_requests completes (or forever when 0).
// The "listening on" line is flushed immediately so scripted drivers
// (tools/cli_test.sh) can poll for the bound port.
int CmdShardServe(int argc, char** argv) {
  uint64_t max_requests = 0;
  uint32_t max_pending = 128;
  uint32_t trace_sample = 0;
  bool resident = true;
  std::vector<char*> positional;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-requests=", 15) == 0) {
      max_requests = std::strtoull(argv[i] + 15, nullptr, 10);
    } else if (std::strncmp(argv[i], "--max-pending=", 14) == 0) {
      max_pending = static_cast<uint32_t>(std::atoi(argv[i] + 14));
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      trace_sample = static_cast<uint32_t>(std::atoi(argv[i] + 15));
    } else if (std::strcmp(argv[i], "--backend=paged") == 0) {
      resident = false;
    } else if (std::strcmp(argv[i], "--backend=resident") == 0) {
      resident = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(positional.size());
  argv = positional.data();
  if (argc < 2) return Usage();
  const std::string csv = argv[0];
  const uint32_t shards = static_cast<uint32_t>(std::atoi(argv[1]));
  const uint16_t port =
      argc > 2 ? static_cast<uint16_t>(std::atoi(argv[2])) : 0;
  const uint32_t workers =
      argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 2;

  auto points = ReadPointsCsv(csv);
  if (!points.ok()) return Fail(points.status(), "read csv");

  ShardSet<2>::Options set_options;
  set_options.num_shards = shards;
  set_options.service.num_workers = workers;
  set_options.service.resident_tier = resident;
  auto set = ShardSet<2>::Build(MakePointEntries(*points), set_options);
  if (!set.ok()) return Fail(set.status(), "build shards");
  ShardRouter<2>::Options router_options;
  router_options.trace_sample_per_million = trace_sample;
  ShardRouter<2> router(set->get(), router_options);

  typename RpcServer<2>::Options server_options;
  server_options.port = port;
  server_options.max_pending = max_pending;
  server_options.max_requests = max_requests;
  auto server = RpcServer<2>::Start(&router, server_options);
  if (!server.ok()) return Fail(server.status(), "start server");

  std::printf("listening on 127.0.0.1:%u (%u shards, %u workers/shard, "
              "%s backend)\n",
              (*server)->port(), (*set)->num_shards(), workers,
              resident ? "resident" : "paged");
  std::fflush(stdout);

  (*server)->WaitUntilStopped();
  std::printf("served %llu requests (%llu shed)\n",
              static_cast<unsigned long long>((*server)->requests_served()),
              static_cast<unsigned long long>((*server)->requests_shed()));
  return 0;
}

// Fires uniformly random kNN queries at a shard-serve endpoint, one
// RpcClient per thread (the client is not thread-safe), and reports
// aggregate throughput, latency percentiles over accepted requests, and
// the ok/shed/failed split. Sheds are expected under deliberate overload
// and do not fail the run; transport errors do.
int CmdShardBench(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string host = argv[0];
  const uint16_t port = static_cast<uint16_t>(std::atoi(argv[1]));
  const size_t num_queries = static_cast<size_t>(std::atoll(argv[2]));
  const uint32_t k =
      argc > 3 ? static_cast<uint32_t>(std::atoi(argv[3])) : 10;
  const uint32_t num_threads =
      argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 2;
  if (num_threads < 1) return Usage();

  std::atomic<uint64_t> ok{0}, shed{0}, failed{0};
  std::vector<std::vector<uint64_t>> latencies(num_threads);
  std::vector<std::thread> clients;
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t t = 0; t < num_threads; ++t) {
    clients.emplace_back([&, t] {
      auto client = RpcClient<2>::Connect(host, port);
      if (!client.ok()) {
        std::fprintf(stderr, "connect: %s\n",
                     client.status().ToString().c_str());
        failed.fetch_add(1);
        return;
      }
      Rng rng(777 + t);
      for (size_t i = t; i < num_queries; i += num_threads) {
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        const auto t0 = std::chrono::steady_clock::now();
        auto r = (*client)->Call(QueryRequest<2>::Knn(q, k));
        const auto t1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          std::fprintf(stderr, "call: %s\n", r.status().ToString().c_str());
          failed.fetch_add(1);
          return;  // connection is dead after a transport error
        }
        if (r->status.ok()) {
          ok.fetch_add(1);
          latencies[t].push_back(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
        } else if (r->status.IsOverloaded()) {
          shed.fetch_add(1);
        } else {
          std::fprintf(stderr, "query: %s\n", r->status.ToString().c_str());
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<uint64_t> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  auto pct = [&](double p) {
    if (all.empty()) return 0.0;
    const size_t i = std::min(all.size() - 1,
                              static_cast<size_t>(p * (all.size() - 1)));
    return static_cast<double>(all[i]) / 1e6;
  };

  std::printf("ran %zu queries (k=%u) on %u threads in %.3f s\n", num_queries,
              k, num_threads, elapsed);
  std::printf("throughput: %.0f queries/s\n",
              elapsed > 0 ? static_cast<double>(ok.load()) / elapsed : 0.0);
  std::printf("accepted latency p50/p99: %.3f / %.3f ms\n", pct(0.50),
              pct(0.99));
  std::printf("ok=%llu shed=%llu failed=%llu\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(shed.load()),
              static_cast<unsigned long long>(failed.load()));
  return failed.load() == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc - 2, argv + 2);
  if (command == "build") return CmdBuild(argc - 2, argv + 2);
  if (command == "stats") return CmdStats(argc - 2, argv + 2);
  if (command == "tree-quality") return CmdTreeQuality(argc - 2, argv + 2);
  if (command == "knn") return CmdKnn(argc - 2, argv + 2);
  if (command == "approx-knn") return CmdApproxKnn(argc - 2, argv + 2);
  if (command == "farthest") return CmdFarthest(argc - 2, argv + 2);
  if (command == "rnn") return CmdRnn(argc - 2, argv + 2);
  if (command == "rknn") return CmdRknn(argc - 2, argv + 2);
  if (command == "skyline") return CmdSkyline(argc - 2, argv + 2);
  if (command == "range") return CmdRange(argc - 2, argv + 2);
  if (command == "serve-bench") return CmdServeBench(argc - 2, argv + 2);
  if (command == "metrics") return CmdMetrics(argc - 2, argv + 2);
  if (command == "shard-serve") return CmdShardServe(argc - 2, argv + 2);
  if (command == "shard-bench") return CmdShardBench(argc - 2, argv + 2);
  return Usage();
}

}  // namespace
}  // namespace spatial

int main(int argc, char** argv) { return spatial::Main(argc, argv); }
