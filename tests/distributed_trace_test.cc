// End-to-end distributed tracing and the remote admin plane: a sampled
// kNN through a 4-shard router over real RPC must produce one assembled
// trace whose per-shard spans sum to the router-merged stats; the router's
// own sampling and slow-capture paths must populate the trace log; the
// deadline hint must shed expired requests before any shard sees them; the
// admin frames must serve metrics and the trace log over the wire without
// touching the request budget; and a v2 client must be refused at the
// handshake.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/dist_trace.h"
#include "shard/shard_router.h"
#include "shard/shard_set.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

std::vector<Entry<2>> MakeData(size_t n, uint64_t seed = 77) {
  Rng rng(seed);
  return MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
}

// 1200 objects over 4 shards: 300 per shard.
constexpr size_t kObjects = 1200;

// A kNN needing more neighbors than any shard of the 4-shard fixture holds:
// no shard returns k neighbors, so the router prunes no extent and the
// request provably visits every shard.
constexpr uint32_t kFullFanOutK = kObjects / 4 + 1;

struct Fixture {
  explicit Fixture(const ShardRouter<2>::Options& router_options = {},
                   uint32_t num_shards = 4) {
    ShardSet<2>::Options options;
    options.num_shards = num_shards;
    options.page_size = 512;
    options.buffer_pages = 64;
    options.service.num_workers = 2;
    options.service.frames_per_worker = 32;
    auto built = ShardSet<2>::Build(MakeData(kObjects), options);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    set = std::move(*built);
    router = std::make_unique<ShardRouter<2>>(set.get(), router_options);
  }

  std::unique_ptr<ShardSet<2>> set;
  std::unique_ptr<ShardRouter<2>> router;
};

uint64_t SumNodesVisited(const obs::RouterTraceRecord& rec) {
  uint64_t sum = 0;
  for (uint32_t s = 0; s < rec.captured_shards(); ++s) {
    sum += rec.shards[s].stats.nodes_visited;
  }
  return sum;
}

TEST(DistributedTraceTest, SampledKnnOverRpcAssemblesOneTrace) {
  Fixture fx;
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // An externally sampled trace context, as a remote caller would stamp.
  QueryRequest<2> request = QueryRequest<2>::Knn({{0.41, 0.57}}, kFullFanOutK);
  request.trace_id = 0xABCDEF0123456789ULL;
  request.trace_sampled = true;
  auto response = (*client)->Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->status.ok());
  ASSERT_EQ(response->neighbors.size(), kFullFanOutK);

  // The router recorded exactly one assembled trace before replying.
  const obs::DistTraceLog& log = fx.router->trace_log();
  ASSERT_EQ(log.total_recorded(), 1u);
  std::vector<obs::RouterTraceRecord> entries = log.SampledEntries();
  if (entries.empty()) entries = log.SlowEntries();  // slow machine
  ASSERT_EQ(entries.size(), 1u);
  const obs::RouterTraceRecord& rec = entries[0];

  // Root identity: the propagated trace id, a router-minted root span.
  EXPECT_TRUE(rec.traced);
  EXPECT_EQ(rec.trace_id, request.trace_id);
  EXPECT_NE(rec.root_span_id, 0u);
  EXPECT_STREQ(rec.kind_name, "knn");
  EXPECT_EQ(rec.k, kFullFanOutK);
  EXPECT_EQ(rec.num_shards, 4u);
  EXPECT_LT(rec.straggler, 4u);
  EXPECT_EQ(rec.total_ns, rec.scatter_ns + rec.merge_ns);
  EXPECT_GT(rec.scatter_ns, 0u);

  // Every shard span is present, traced, and internally consistent: the
  // router-observed round trip bounds the shard's own execute time.
  for (uint32_t s = 0; s < 4; ++s) {
    const obs::ShardSpan& span = rec.shards[s];
    EXPECT_EQ(span.shard, s);
    EXPECT_TRUE(span.traced) << "shard " << s << " returned no trace record";
    EXPECT_GT(span.rpc_ns, 0u);
    EXPECT_GE(span.rpc_ns, span.execute_ns);
    EXPECT_GT(span.stats.nodes_visited, 0u);
  }

  // The cross-shard invariant the trace exists to certify: per-shard stats
  // sum to the router-merged stats, which are exactly what the RPC
  // response reported.
  EXPECT_EQ(SumNodesVisited(rec), rec.merged_stats.nodes_visited);
  EXPECT_EQ(rec.merged_stats.nodes_visited, response->stats.nodes_visited);
  uint64_t heap_pops = 0, dists = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    heap_pops += rec.shards[s].stats.heap_pops;
    dists += rec.shards[s].stats.distance_computations;
  }
  EXPECT_EQ(heap_pops, response->stats.heap_pops);
  EXPECT_EQ(dists, response->stats.distance_computations);

  // The assembled-trace counter ticked; the JSON dump carries the spans.
  const std::string scrape = fx.router->ScrapeMetrics();
  EXPECT_NE(scrape.find("spatial_router_traces_assembled_total 1"),
            std::string::npos);
  std::string id_json = "\"trace_id\":";
  id_json += std::to_string(request.trace_id);
  const std::string json = log.DumpJson();
  EXPECT_NE(json.find(id_json), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
}

TEST(DistributedTraceTest, InteriorKnnTracesOnlyItsShard) {
  ShardRouter<2>::Options options;
  options.trace_sample_per_million = 1'000'000;  // trace everything
  Fixture fx(options);

  // A k=1 query at the centre of the last shard's extent: its nearest
  // neighbor lies far closer than any other extent, so the router visits
  // that shard alone and the one span carries its real index, not its
  // position in the trace.
  const uint32_t last = fx.set->num_shards() - 1;
  const Point2 q = fx.set->extents()[last].Center();
  const QueryResponse<2> response =
      fx.router->Execute(QueryRequest<2>::Knn(q, 1));
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.neighbors.size(), 1u);

  std::vector<obs::RouterTraceRecord> entries =
      fx.router->trace_log().SampledEntries();
  if (entries.empty()) entries = fx.router->trace_log().SlowEntries();
  ASSERT_EQ(entries.size(), 1u);
  const obs::RouterTraceRecord& rec = entries[0];
  EXPECT_EQ(rec.num_shards, 1u);
  EXPECT_EQ(rec.shards[0].shard, last);
  EXPECT_EQ(rec.straggler, last);
  EXPECT_TRUE(rec.shards[0].traced);
  EXPECT_EQ(rec.shards[0].stats.nodes_visited,
            response.stats.nodes_visited);

  const std::string scrape = fx.router->ScrapeMetrics();
  EXPECT_NE(scrape.find("spatial_router_shards_pruned_total{kind=\"knn\"} " +
                        std::to_string(fx.set->num_shards() - 1)),
            std::string::npos);
}

TEST(DistributedTraceTest, RouterOwnSamplingMintsTraceIds) {
  ShardRouter<2>::Options options;
  options.trace_sample_per_million = 1'000'000;  // trace everything
  Fixture fx(options);

  const QueryResponse<2> response =
      fx.router->Execute(QueryRequest<2>::Knn({{0.3, 0.3}}, 5));
  ASSERT_TRUE(response.status.ok());

  const obs::DistTraceLog& log = fx.router->trace_log();
  ASSERT_EQ(log.total_recorded(), 1u);
  std::vector<obs::RouterTraceRecord> entries = log.SampledEntries();
  if (entries.empty()) entries = log.SlowEntries();
  ASSERT_EQ(entries.size(), 1u);
  // No caller-provided context: the router minted a nonzero trace id.
  EXPECT_TRUE(entries[0].traced);
  EXPECT_NE(entries[0].trace_id, 0u);
  EXPECT_NE(entries[0].root_span_id, 0u);
  EXPECT_EQ(SumNodesVisited(entries[0]),
            entries[0].merged_stats.nodes_visited);
}

TEST(DistributedTraceTest, SlowRoundTripsCaptureWithoutSampling) {
  ShardRouter<2>::Options options;
  options.slow_threshold_ns = 0;  // every round trip is "slow"
  Fixture fx(options);

  ASSERT_TRUE(fx.router->Execute(QueryRequest<2>::Knn({{0.6, 0.2}},
                                                      kFullFanOutK))
                  .status.ok());

  const obs::DistTraceLog& log = fx.router->trace_log();
  ASSERT_EQ(log.slow_captured(), 1u);
  const obs::RouterTraceRecord rec = log.SlowEntries()[0];
  // Unsampled capture: no trace identity or per-shard queue detail, but
  // the per-shard execute/stats split is still there.
  EXPECT_FALSE(rec.traced);
  EXPECT_EQ(rec.trace_id, 0u);
  EXPECT_EQ(rec.num_shards, 4u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(rec.shards[s].traced);
    EXPECT_GT(rec.shards[s].stats.nodes_visited, 0u);
  }
}

// The value of an unlabelled counter in a scrape, or -1 when absent.
double CounterValue(const std::string& scrape, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t pos = scrape.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(scrape.c_str() + pos + needle.size(), nullptr);
}

TEST(DistributedTraceTest, SampledReverseKnnTracesEveryRoundTrip) {
  Fixture fx;  // router sampling off: only the caller's context samples

  // A sampled reverse kNN: its candidate round and every verification
  // round are traced under the caller's one trace id.
  QueryRequest<2> request = QueryRequest<2>::ReverseKnn({{0.5, 0.5}}, 1);
  request.trace_id = 0x1234;
  request.trace_sampled = true;
  const QueryResponse<2> response = fx.router->Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();

  const double verify_rounds = CounterValue(
      fx.router->ScrapeMetrics(), "spatial_router_rknn_verify_rounds_total");
  ASSERT_GE(verify_rounds, 1.0);
  const obs::DistTraceLog& log = fx.router->trace_log();
  ASSERT_LT(verify_rounds, 64.0);  // every entry fits the log's reservoir
  std::vector<obs::RouterTraceRecord> entries = log.SampledEntries();
  for (const obs::RouterTraceRecord& rec : log.SlowEntries()) {
    entries.push_back(rec);
  }
  size_t under_id = 0;
  size_t candidate_rounds = 0;
  for (const obs::RouterTraceRecord& rec : entries) {
    if (rec.trace_id != 0x1234) continue;
    ++under_id;
    EXPECT_TRUE(rec.traced);
    if (std::string(rec.kind_name) == "reverse-knn") ++candidate_rounds;
  }
  EXPECT_EQ(under_id, 1 + static_cast<size_t>(verify_rounds));
  EXPECT_EQ(candidate_rounds, 1u);
  EXPECT_EQ(log.total_recorded(), under_id);

  // Unsampled, the same request draws no samples of its own.
  Fixture quiet;
  ASSERT_TRUE(
      quiet.router->Execute(QueryRequest<2>::ReverseKnn({{0.5, 0.5}}, 1))
          .status.ok());
  EXPECT_EQ(quiet.router->trace_log().SampledEntries().size(), 0u);
}

TEST(DistributedTraceTest, ExpiredDeadlineShedsBeforeShards) {
  Fixture fx;
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok());
  auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // A caller whose deadline already passed sends budget=1: the server
  // sheds before the router (and any shard) sees the request.
  QueryRequest<2> expired = QueryRequest<2>::Knn({{0.5, 0.5}}, 5);
  expired.deadline_budget_ns = 1;
  auto response = (*client)->Call(expired);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.IsOverloaded());
  EXPECT_EQ(response->status.message(), "deadline expired before execution");

  const std::string scrape = fx.router->ScrapeMetrics();
  EXPECT_NE(scrape.find("spatial_rpc_deadline_shed_total 1"),
            std::string::npos);
  // Counted apart from capacity sheds, and the router never saw it.
  EXPECT_NE(scrape.find("spatial_rpc_shed_total 0"), std::string::npos);
  EXPECT_NE(scrape.find("spatial_router_requests_total{kind=\"knn\"} 0"),
            std::string::npos);

  // A generous budget sails through admission.
  QueryRequest<2> fresh = QueryRequest<2>::Knn({{0.5, 0.5}}, 5);
  fresh.deadline_budget_ns = 5'000'000'000;  // 5 s
  auto ok = (*client)->Call(fresh);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->status.ok());
  EXPECT_EQ(ok->neighbors.size(), 5u);
}

TEST(DistributedTraceTest, AdminFramesServeMetricsAndSlowLog) {
  ShardRouter<2>::Options options;
  options.trace_sample_per_million = 1'000'000;
  Fixture fx(options);
  typename RpcServer<2>::Options server_options;
  server_options.max_requests = 2;  // admin frames must not consume these
  auto server = RpcServer<2>::Start(fx.router.get(), server_options);
  ASSERT_TRUE(server.ok());
  auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE((*client)->Call(QueryRequest<2>::Knn({{0.2, 0.8}}, 4)).ok());

  // Remote scrape: the labeled router family, the per-shard families, and
  // the admin counter itself are all in the one document.
  auto metrics = (*client)->Admin(AdminKind::kScrapeMetrics);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("spatial_router_requests_total{kind=\"knn\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics->find("spatial_shard_queries_total{shard=\"0\""),
            std::string::npos);
  EXPECT_NE(metrics->find("spatial_rpc_admin_requests_total"),
            std::string::npos);

  // Remote trace dump: the sampled query above is in it, spans and all.
  auto slow_log = (*client)->Admin(AdminKind::kDumpSlowLog);
  ASSERT_TRUE(slow_log.ok()) << slow_log.status().ToString();
  EXPECT_NE(slow_log->find("\"slow_threshold_ns\""), std::string::npos);
  EXPECT_NE(slow_log->find("\"trace_id\""), std::string::npos);
  EXPECT_NE(slow_log->find("\"kind\":\"knn\""), std::string::npos);

  // Neither admin round trip consumed the 2-request budget: one query
  // slot is still open.
  EXPECT_EQ((*server)->requests_served(), 1u);
  auto last = (*client)->Call(QueryRequest<2>::Knn({{0.7, 0.1}}, 4));
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last->status.ok());
  (*server)->WaitUntilStopped();
  EXPECT_EQ((*server)->requests_served(), 2u);
}

TEST(DistributedTraceTest, RejectsWireV2Handshake) {
  Fixture fx(ShardRouter<2>::Options{}, 2);
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok());

  // A v2 client: right magic and dimensionality, older protocol version.
  // The server drops the connection before answering, so the handshake
  // never completes.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ASSERT_EQ(1, ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  ASSERT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  WireHandshake v2;
  v2.version = 2;
  v2.dim = 2;
  ASSERT_TRUE(SendHandshake(fd, v2).ok());
  EXPECT_FALSE(RecvHandshake(fd).ok());
  ::close(fd);

  // A current-version client on the same server still connects fine.
  auto client = RpcClient<2>::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
}

TEST(DistributedTraceTest, ConcurrentRemoteScrapesUnderSampledLoad) {
  // TSan coverage (tools/tsan_check.sh): remote admin scrapes and slow-log
  // dumps racing sampled query traffic across connections must be clean —
  // the scrape reads the same StatCounter cells and trace log the query
  // path writes.
  ShardRouter<2>::Options options;
  options.trace_sample_per_million = 1'000'000;
  Fixture fx(options);
  auto server = RpcServer<2>::Start(fx.router.get(), {});
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  constexpr int kQueryThreads = 3;
  constexpr int kScrapeThreads = 2;
  constexpr int kRounds = 40;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = RpcClient<2>::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(500 + t);
      for (int i = 0; i < kRounds; ++i) {
        const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        auto response = (*client)->Call(QueryRequest<2>::Knn(q, 5));
        if (!response.ok() || !response->status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kScrapeThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = RpcClient<2>::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        const AdminKind kind = (i + t) % 2 == 0 ? AdminKind::kScrapeMetrics
                                                : AdminKind::kDumpSlowLog;
        auto text = (*client)->Admin(kind);
        if (!text.ok() || text->empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(fx.router->trace_log().total_recorded(),
            static_cast<uint64_t>(kQueryThreads * kRounds));
}

}  // namespace
}  // namespace spatial
