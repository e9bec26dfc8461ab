#include "ladder.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>

#include "core/constrained.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "core/reverse_knn.h"
#include "core/skyline.h"
#include "geom/metrics_simd.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/wire.h"
#include "percentile.h"
#include "storage/read_only_disk.h"

namespace spatial {
namespace e2e {

namespace {

// Spans stay a few MB: the ladder stops after this many requests even when
// its time share is not used up, and runs at least the minimum. Requests
// go through the rungs in chunks.
constexpr size_t kMaxLadderRequests = 4000;
constexpr size_t kMinLadderRequests = 32;
constexpr size_t kChunk = 16;
// The paged rung's pool: QueryService's default frames_per_worker.
constexpr uint32_t kPoolFrames = 256;
constexpr size_t kMaxStride = 512;

// One kNN-family query's traversal, replayed by the geom rung: the nodes
// the search visited and its final k-th distance as the filter bound.
struct KernelJob {
  Point<2> query;
  double bound;
  std::vector<uint64_t> visits;
};

std::vector<KernelJob> CollectJobs(const ResidentTree<2>& tree, const Req& r,
                                   QueryScratch<2>* scratch) {
  if (r.kind != QueryKind::kKnn && r.kind != QueryKind::kApproxKnn) return {};
  KernelJob job;
  job.query = r.query;
  KnnOptions options = r.knn;
  options.visit_trace = &job.visits;
  std::vector<Neighbor> out;
  const Status st =
      KnnSearchInto<2>(tree, r.query, options, scratch, &out, nullptr);
  if (!st.ok()) throw Fatal(1, "visit trace: " + st.ToString());
  job.bound = out.empty() ? std::numeric_limits<double>::infinity()
                          : out.back().dist_sq;
  return {std::move(job)};
}

// Returns the number of entries the kernels evaluated.
uint64_t ReplayKernels(const ResidentTree<2>& tree,
                       const std::vector<KernelJob>& jobs) {
  const SoaKernelSet& kernels = SoaKernels<2>();
  alignas(64) double dist[kMaxStride];
  uint32_t idx[kMaxStride];
  uint64_t entries = 0;
  for (const KernelJob& job : jobs) {
    for (uint64_t id : job.visits) {
      const ResidentNodeRef<2>* node = tree.Find(id);
      if (node == nullptr || SoaStride(node->count) > kMaxStride) {
        throw Fatal(1, "geom rung: unexpected node");
      }
      const size_t stride = SoaStride(node->count);
      if (node->is_leaf()) {
        kernels.object_dist(job.query.coord.data(), node->planes, stride,
                            node->count, dist);
      } else {
        kernels.min_dist_filter(job.query.coord.data(), node->planes, stride,
                                node->count, job.bound, dist, idx);
      }
      entries += node->count;
    }
  }
  return entries;
}

// The core engines the service would dispatch `r` to, called directly on
// `tree`. Range and constrained kNN have no resident engine; both tiers
// answer them on the paged tree, as the service does.
template <typename Tree>
Resp RunCore(const Tree& tree, const RTree<2>& paged, const Req& r,
             QueryScratch<2>* scratch) {
  Resp out;
  switch (r.kind) {
    case QueryKind::kKnn:
    case QueryKind::kApproxKnn:
      out.status = KnnSearchInto<2>(tree, r.query, r.knn, scratch,
                                    &out.neighbors, &out.stats);
      break;
    case QueryKind::kTopK: {
      IncrementalKnn<2> scan(tree, r.query, scratch, &out.stats);
      for (uint32_t i = 0; i < r.top_k && out.status.ok(); ++i) {
        Result<std::optional<Neighbor>> next = scan.Next();
        if (!next.ok()) {
          out.status = next.status();
        } else if (!next->has_value()) {
          break;
        } else {
          out.neighbors.push_back(**next);
        }
      }
      break;
    }
    case QueryKind::kNnSkyline:
      out.status = NnSkylineSearch<2>(tree, r.batch_queries.data(),
                                      r.batch_queries.size(), scratch,
                                      &out.entries, &out.stats);
      break;
    case QueryKind::kReverseKnn: {
      ReverseKnnOptions options;
      options.k = r.knn.k;
      out.status = ReverseKnnSearch(tree, r.query, options, scratch,
                                    &out.neighbors, &out.stats);
      break;
    }
    case QueryKind::kRange:
      out.status = paged.Search(r.window, &out.entries);
      break;
    case QueryKind::kConstrainedKnn: {
      Result<std::vector<Neighbor>> found =
          ConstrainedKnnSearch<2>(paged, r.query, r.window, r.knn, &out.stats);
      if (found.ok()) {
        out.neighbors = std::move(found).value();
      } else {
        out.status = found.status();
      }
      break;
    }
    default:
      out.status = Status::InvalidArgument("not a read kind");
  }
  if (!out.ok()) throw Fatal(1, "core rung: " + out.status.ToString());
  return out;
}

void CheckOk(const Resp& r, const char* rung) {
  if (!r.ok()) throw Fatal(1, std::string(rung) + ": " + r.status.ToString());
}

// A counter's value in a Prometheus text scrape (0 when absent).
double ScrapeValue(const std::string& text, const std::string& name) {
  const size_t at = text.find("\n" + name + " ");
  return at == std::string::npos
             ? 0.0
             : std::strtod(text.c_str() + at + name.size() + 2, nullptr);
}

}  // namespace

void SpanLog::Record(uint32_t id, const char* name, uint32_t parent,
                     uint64_t request, int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{id, parent, request, name, start_ns, end_ns});
}

void SpanLog::WriteJson(const std::string& path, const std::string& workload,
                        uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw Fatal(1, "cannot write " + path);
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"clock\": "
               "\"steady_clock ns\", \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"request\": %llu, \"name\": "
                 "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.request),
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw Fatal(1, "cannot write " + path);
}

uint64_t RunLadder(const LadderTargets& t, double read_seconds,
                   double write_seconds, SpanLog* spans, Metrics* per_layer,
                   Metrics* diagnostics) {
  const std::vector<Req>& requests = t.inputs->requests;
  const std::shared_ptr<const ResidentTree<2>> resident =
      t.reference->service().resident_tree();
  if (resident == nullptr) throw Fatal(1, "reference has no resident tier");

  const SpatialDb<2>& db = t.reference->db();
  ReadOnlyDiskView disk(&db.disk());
  BufferPool pool(&disk, kPoolFrames);
  Result<RTree<2>> opened = RTree<2>::Open(
      &pool, db.tree().options(), db.tree().root_page(), db.tree().size());
  if (!opened.ok()) throw Fatal(1, "paged rung: " + opened.status().ToString());
  const RTree<2>& paged = *opened;

  Result<std::unique_ptr<RpcClient<2>>> client =
      RpcClient<2>::Connect("127.0.0.1", t.port);
  if (!client.ok()) throw Fatal(1, "rpc rung: " + client.status().ToString());

  QueryScratch<2> scratch;
  std::vector<std::vector<KernelJob>> jobs(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    jobs[i] = CollectJobs(*resident, requests[i], &scratch);
  }
  const std::string scrape_before = t.router->ScrapeMetrics();

  std::vector<double> geom_us, resident_us, paged_us, service_us, router_us,
      codec_us, rpc_us, write_us, checkpoint_us;
  std::map<std::string, std::vector<double>> router_by_kind;
  uint64_t calls = 0, geom_entries = 0, core_nodes = 0, core_dist = 0,
           router_nodes = 0, req_bytes = 0, resp_bytes = 0, rknn_requests = 0;
  std::string enc_req, enc_resp;

  // Each rung, one call per request, runs on a request. false = the rung
  // does not apply to it (the geom rung on non-kNN kinds).
  struct Rung {
    const char* name;
    std::vector<double>* samples;
    std::function<bool(size_t)> call;
  };
  const std::vector<Rung> rungs = {
      {"geom.kernel", &geom_us,
       [&](size_t idx) {
         if (jobs[idx].empty()) return false;
         geom_entries += ReplayKernels(*resident, jobs[idx]);
         return true;
       }},
      {"core.resident", &resident_us,
       [&](size_t idx) {
         const Resp core = RunCore(*resident, paged, requests[idx], &scratch);
         core_nodes += core.stats.nodes_visited;
         core_dist += core.stats.distance_computations;
         return true;
       }},
      {"core.paged", &paged_us,
       [&](size_t idx) {
         RunCore(paged, paged, requests[idx], &scratch);
         return true;
       }},
      {"service.execute", &service_us,
       [&](size_t idx) {
         CheckOk(t.reference->service().Execute(requests[idx]),
                 "service rung");
         return true;
       }},
      {"shard.router4", &router_us,
       [&](size_t idx) {
         const Resp routed = t.router->Execute(requests[idx]);
         CheckOk(routed, "shard rung");
         router_nodes += routed.stats.nodes_visited;
         return true;
       }},
      {"net.codec", &codec_us,
       [&](size_t idx) {
         enc_req.clear();
         EncodeRequest<2>(requests[idx], &enc_req);
         const bool req_ok = DecodeRequest<2>(
             reinterpret_cast<const uint8_t*>(enc_req.data()), enc_req.size())
                                 .ok();
         enc_resp.clear();
         EncodeResponse<2>((*t.expected)[idx], &enc_resp);
         const bool resp_ok =
             DecodeResponse<2>(
                 reinterpret_cast<const uint8_t*>(enc_resp.data()),
                 enc_resp.size())
                 .ok();
         if (!req_ok || !resp_ok) throw Fatal(1, "codec rung: decode failed");
         req_bytes += enc_req.size();
         resp_bytes += enc_resp.size();
         return true;
       }},
      {"net.rpc", &rpc_us,
       [&](size_t idx) {
         Result<Resp> got = (*client)->Call(requests[idx]);
         if (!got.ok()) throw Fatal(1, "rpc rung: " + got.status().ToString());
         CheckOk(*got, "rpc rung");
         return true;
       }},
  };

  // Rung by rung over a chunk of requests, in forward order on even chunks
  // and reverse order on odd ones. A rung that runs right after another on
  // the same requests finds their data in cache; alternating gives every
  // rung both positions.
  size_t n = 0;
  for (const int64_t deadline =
           NowNs() + static_cast<int64_t>(read_seconds * 1e9);
       n < kMaxLadderRequests && (n < kMinLadderRequests || NowNs() < deadline);
       n += kChunk) {
    uint32_t roots[kChunk];
    int64_t first[kChunk], last[kChunk];
    for (size_t c = 0; c < kChunk; ++c) {
      roots[c] = spans->NewId();
      first[c] = std::numeric_limits<int64_t>::max();
      last[c] = 0;
    }
    const bool reverse = (n / kChunk) % 2 == 1;
    for (size_t r = 0; r < rungs.size(); ++r) {
      const Rung& rung = rungs[reverse ? rungs.size() - 1 - r : r];
      for (size_t c = 0; c < kChunk; ++c) {
        const size_t idx = (n + c) % requests.size();
        const int64_t t0 = NowNs();
        const bool ran = rung.call(idx);
        const int64_t t1 = NowNs();
        if (!ran) continue;
        spans->Record(spans->NewId(), rung.name, roots[c], n + c, t0, t1);
        first[c] = std::min(first[c], t0);
        last[c] = std::max(last[c], t1);
        rung.samples->push_back(static_cast<double>(t1 - t0) / 1e3);
        ++calls;
      }
    }
    for (size_t c = 0; c < kChunk; ++c) {
      const QueryKind kind = requests[(n + c) % requests.size()].kind;
      router_by_kind[QueryKindName(kind)].push_back(
          router_us[router_us.size() - kChunk + c]);
      if (kind == QueryKind::kReverseKnn) ++rknn_requests;
      spans->Record(roots[c], "request", 0, n + c, first[c], last[c]);
    }
  }
  const std::string scrape_after = t.router->ScrapeMetrics();

  // The write rung, then one checkpoint; each call is its own root span.
  const auto timed = [&](const char* name, std::vector<double>* samples,
                         auto&& call) {
    const int64_t t0 = NowNs();
    call();
    const int64_t t1 = NowNs();
    spans->Record(spans->NewId(), name, 0, n++, t0, t1);
    samples->push_back(static_cast<double>(t1 - t0) / 1e3);
    ++calls;
  };
  const size_t read_requests = n;
  for (const int64_t deadline =
           NowNs() + static_cast<int64_t>(write_seconds * 1e9);
       write_us.size() < kMinLadderRequests || NowNs() < deadline;) {
    const size_t w = t.writes->Next();
    Resp acked;
    timed("db.write", &write_us,
          [&] { acked = t.router->Execute(t.writes->request(w)); });
    t.writes->Acked(w, acked);
  }
  timed("db.checkpoint", &checkpoint_us,
        [&] { CheckOk(t.router->Execute(Req::Checkpoint()), "checkpoint"); });

  const double requests_timed = static_cast<double>(read_requests);
  const double geom = Median(geom_us), res = Median(resident_us),
               svc = Median(service_us), rtr = Median(router_us),
               rpc = Median(rpc_us);
  *per_layer = Metrics{
      {"geom.kernel_us", geom, "us"},
      {"geom.entries_per_query",
       static_cast<double>(geom_entries) /
           static_cast<double>(std::max<size_t>(1, geom_us.size())),
       "count"},
      {"core.resident_us", res, "us"},
      {"core.paged_us", Median(paged_us), "us"},
      {"core.nodes_per_query", static_cast<double>(core_nodes) / requests_timed,
       "count"},
      {"core.dist_per_query", static_cast<double>(core_dist) / requests_timed,
       "count"},
      {"service.us", svc, "us"},
      {"service.self_us", svc - res, "us"},
      {"shard.router4_us", rtr, "us"},
      {"shard.self_us", rtr - svc, "us"},
      {"shard.work_ratio",
       static_cast<double>(router_nodes) / static_cast<double>(core_nodes),
       "ratio"},
      {"net.codec_us", Median(codec_us), "us"},
      {"net.rpc_us", rpc, "us"},
      {"net.self_us", rpc - rtr, "us"},
      {"net.req_bytes", static_cast<double>(req_bytes) / requests_timed, "B"},
      {"net.resp_bytes", static_cast<double>(resp_bytes) / requests_timed, "B"},
      {"db.write_us", Median(write_us), "us"},
      {"db.checkpoint_ms", checkpoint_us[0] / 1e3, "ms"},
  };
  diagnostics->push_back({"ladder.requests", requests_timed, "count"});
  for (const auto& [kind, samples] : router_by_kind) {
    diagnostics->push_back({"shard.us." + kind, Median(samples), "us"});
  }
  if (rknn_requests > 0) {
    const char* verify = "spatial_router_rknn_verify_rounds_total";
    diagnostics->push_back(
        {"shard.rknn_verify_per_query",
         (ScrapeValue(scrape_after, verify) -
          ScrapeValue(scrape_before, verify)) /
             static_cast<double>(rknn_requests),
         "count"});
  }
  return calls;
}

}  // namespace e2e
}  // namespace spatial
